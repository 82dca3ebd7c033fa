package stats

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var base = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second})
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{time.Second, 0.25},
		{2500 * time.Millisecond, 0.5},
		{4 * time.Second, 1},
		{time.Hour, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.at); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	if got := c.Mean(); got != 2500*time.Millisecond {
		t.Errorf("Mean = %v, want 2.5s", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(time.Hour) != 0 || c.N() != 0 || c.Quantile(0.5) != 0 || c.Mean() != 0 {
		t.Error("empty CDF should be all zeros")
	}
	if c.String() != "CDF{empty}" {
		t.Errorf("String = %q", c.String())
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]time.Duration{10, 20, 30, 40, 50})
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{-1, 10}, {0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {1, 50}, {2, 50},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	f := func() bool {
		n := 1 + rng.IntN(200)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.IntN(10000)) * time.Millisecond
		}
		c := NewCDF(samples)
		// CDF must be monotone nondecreasing and hit 1 at the max.
		prev := 0.0
		for d := time.Duration(0); d <= 10*time.Second; d += 500 * time.Millisecond {
			p := c.At(d)
			if p < prev {
				return false
			}
			prev = p
		}
		return c.At(10*time.Second) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	f := func() bool {
		n := 1 + rng.IntN(100)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.IntN(1000)) * time.Millisecond
		}
		c := NewCDF(samples)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 1.0} {
			if c.At(c.Quantile(q)) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]time.Duration{time.Minute, time.Hour})
	got := c.Points([]time.Duration{0, time.Minute, time.Hour})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Points[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInterArrivalGaps(t *testing.T) {
	times := []time.Time{base, base.Add(time.Minute), base.Add(3 * time.Minute)}
	gaps := InterArrivalGaps(times)
	want := []time.Duration{time.Minute, 2 * time.Minute}
	if len(gaps) != 2 || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	if InterArrivalGaps(times[:1]) != nil {
		t.Error("single timestamp should yield no gaps")
	}
	if InterArrivalGaps(nil) != nil {
		t.Error("empty input should yield no gaps")
	}
}

func TestAnalyzeFollowSimple(t *testing.T) {
	// Category 1 at t0 and t0+10m: first is followed (10m gap in
	// (5m, 60m]), second is not. Category 2 at t0+10m+30s: gap to
	// nothing after.
	events := []TimedEvent{
		{base, 1},
		{base.Add(10 * time.Minute), 1},
		{base.Add(10*time.Minute + 30*time.Second), 2},
	}
	fs := AnalyzeFollow(events, 5*time.Minute, time.Hour)
	if fs.Total[1] != 2 || fs.Total[2] != 1 {
		t.Fatalf("Total = %v", fs.Total)
	}
	// First cat-1 event: follower at +10m (within (5m,60m]) -> followed.
	// Second cat-1 event: follower at +30s, gap <= minLead -> NOT followed.
	if fs.Followed[1] != 1 {
		t.Errorf("Followed[1] = %d, want 1", fs.Followed[1])
	}
	if fs.Followed[2] != 0 {
		t.Errorf("Followed[2] = %d, want 0", fs.Followed[2])
	}
	if got := fs.Probability(1); got != 0.5 {
		t.Errorf("Probability(1) = %v, want 0.5", got)
	}
	if got := fs.Probability(99); got != 0 {
		t.Errorf("Probability(unknown) = %v, want 0", got)
	}
}

func TestAnalyzeFollowUnsortedInput(t *testing.T) {
	events := []TimedEvent{
		{base.Add(10 * time.Minute), 1},
		{base, 1},
	}
	fs := AnalyzeFollow(events, 0, time.Hour)
	if fs.Followed[1] != 1 {
		t.Errorf("unsorted input: Followed[1] = %d, want 1", fs.Followed[1])
	}
}

func TestAnalyzeFollowMinLeadClamp(t *testing.T) {
	events := []TimedEvent{{base, 1}, {base.Add(time.Second), 1}}
	fs := AnalyzeFollow(events, -time.Hour, time.Hour)
	if fs.MinLead != 0 {
		t.Errorf("MinLead = %v, want 0", fs.MinLead)
	}
	if fs.Followed[1] != 1 {
		t.Errorf("Followed[1] = %d, want 1", fs.Followed[1])
	}
}

func TestFollowStatsCategories(t *testing.T) {
	events := []TimedEvent{{base, 3}, {base, 1}, {base, 2}, {base, 1}}
	fs := AnalyzeFollow(events, 0, time.Hour)
	got := fs.Categories()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Categories = %v, want %v", got, want)
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("Categories not sorted: %v", got)
	}
}

func TestAnalyzeFollowBurstIsFullyChained(t *testing.T) {
	// A burst of 5 events, 10 minutes apart: the first 4 are followed.
	var events []TimedEvent
	for i := 0; i < 5; i++ {
		events = append(events, TimedEvent{base.Add(time.Duration(i) * 10 * time.Minute), 7})
	}
	fs := AnalyzeFollow(events, 5*time.Minute, time.Hour)
	if fs.Followed[7] != 4 {
		t.Errorf("Followed = %d, want 4", fs.Followed[7])
	}
	if got, want := fs.Probability(7), 0.8; got != want {
		t.Errorf("Probability = %v, want %v", got, want)
	}
}
