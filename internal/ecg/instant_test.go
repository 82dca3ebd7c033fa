package ecg

import (
	"math"
	"testing"
	"time"
)

// extremeTimes are times at the edges of what time.Time and a stamp
// can hold: the zero Time, the ends of int64 nanoseconds (1678 and
// 2262), and seconds whose internal form saturates or wraps.
func extremeTimes() []time.Time {
	t0 := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	var ts []time.Time
	for _, sec := range []int64{
		math.MinInt64, math.MinInt64 + unixToInternal, -unixToInternal - 1, time.Time{}.Unix(),
		time.Date(1677, 9, 21, 0, 12, 43, 0, time.UTC).Unix(), 0, t0.Unix(),
		time.Date(2262, 4, 11, 23, 47, 16, 0, time.UTC).Unix(),
		math.MaxInt64 - unixToInternal, math.MaxInt64 - unixToInternal + 1, math.MaxInt64 - 60, math.MaxInt64,
	} {
		for _, nsec := range []int64{0, 1, 999_999_999} {
			t := time.Unix(sec, nsec).UTC()
			ts = append(ts, t, t.Add(time.Hour), t.Add(-time.Hour), t.Add(math.MaxInt64), t.Add(math.MinInt64))
		}
	}
	return ts
}

// TestInstantMatchesTime holds instants to time.Time on every pair of
// extreme times, including pairs whose difference overflows a Duration
// or whose internal seconds lie on either side of a wrap: after must
// agree with time.Time's, and sub, where it answers, must give what
// time.Time gives.
func TestInstantMatchesTime(t *testing.T) {
	ts := extremeTimes()
	for _, a := range ts {
		ia := instantOf(a)
		for _, b := range ts {
			ib := instantOf(b)
			if got, want := ia.after(ib), a.After(b); got != want {
				t.Fatalf("instantOf(%v).after(%v) = %v, time.Time says %v", a, b, got, want)
			}
			if d, ok := ia.sub(ib); ok && d != a.Sub(b) {
				t.Fatalf("instantOf(%v).sub(%v) = %v, time.Time says %v", a, b, d, a.Sub(b))
			}
		}
	}
}
