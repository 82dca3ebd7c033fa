package ecg

import "time"

// instant is a time as time.Time orders it: seconds since January 1,
// year 1, then nanoseconds. AddSegment reads each event's time into an
// instant once and compares integers after. Unlike preprocess's stamp,
// which saturates outside 1678–2262, two instants compare as their
// times do for every time. Event times carry no monotonic clock
// reading, so none is consulted.
type instant struct {
	sec  int64
	nsec int32
}

// unixToInternal is the seconds from January 1, year 1 to the Unix
// epoch. Adding it to Unix() undoes time.Time's own offset, wrapping
// exactly where that offset wrapped.
const unixToInternal int64 = 62135596800

// instantOf reads t.
func instantOf(t time.Time) instant {
	return instant{sec: t.Unix() + unixToInternal, nsec: int32(t.Nanosecond())}
}

// after is a.After(b).
func (a instant) after(b instant) bool {
	return a.sec > b.sec || a.sec == b.sec && a.nsec > b.nsec
}

// sub is a.Sub(b) when the two are less than 2^33 seconds (272 years)
// apart, where the integer difference cannot overflow. ok is false
// otherwise, and the caller asks time.Time, which saturates.
func (a instant) sub(b instant) (d time.Duration, ok bool) {
	ds := a.sec - b.sec
	if (a.sec^b.sec)&(a.sec^ds) < 0 || ds <= -1<<33 || ds >= 1<<33 {
		return 0, false
	}
	return time.Duration(ds)*time.Second + time.Duration(a.nsec-b.nsec), true
}
