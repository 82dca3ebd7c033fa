package ftsim

import (
	"math"
	"testing"
	"time"
)

func TestYoungInterval(t *testing.T) {
	// sqrt(2 * 5min * 24h) ≈ 2h13m.
	got := YoungInterval(5*time.Minute, 24*time.Hour)
	want := time.Duration(math.Sqrt(2 * float64(5*time.Minute) * float64(24*time.Hour)))
	if got != want {
		t.Fatalf("YoungInterval = %v, want %v", got, want)
	}
	if got < 2*time.Hour || got > 2*time.Hour+30*time.Minute {
		t.Fatalf("YoungInterval = %v, expected ~2h13m", got)
	}
	if YoungInterval(0, time.Hour) != 0 || YoungInterval(time.Minute, 0) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestMTBF(t *testing.T) {
	failures := failuresEvery(5, 10*time.Hour)
	if got := MTBF(failures); got != 10*time.Hour {
		t.Fatalf("MTBF = %v, want 10h", got)
	}
	if MTBF(failures[:1]) != 0 || MTBF(nil) != 0 {
		t.Fatal("MTBF of <2 failures should be 0")
	}
}

// sweepResult is one point of an interval sweep.
type sweepResult struct {
	Interval time.Duration
	Outcome  Outcome
}

// sweepIntervals simulates periodic checkpointing at each interval and
// returns the outcomes plus the index of the most efficient one.
func sweepIntervals(start time.Time, span time.Duration, failures []time.Time, cfg Config, intervals []time.Duration) ([]sweepResult, int) {
	out := make([]sweepResult, len(intervals))
	best := 0
	for i, iv := range intervals {
		cfg.PeriodicInterval = iv
		out[i] = sweepResult{Interval: iv, Outcome: Simulate("periodic", start, span, failures, nil, cfg)}
		if out[i].Outcome.Efficiency() > out[best].Outcome.Efficiency() {
			best = i
		}
	}
	return out, best
}

func TestSweepFindsInteriorOptimum(t *testing.T) {
	// With failures every 12h and 5-minute checkpoints, tiny intervals
	// drown in overhead and huge intervals lose too much work; the
	// best efficiency lies strictly between the extremes.
	span := 600 * time.Hour
	failures := failuresEvery(49, 12*time.Hour)
	cfg := Config{CheckpointCost: 5 * time.Minute}
	intervals := []time.Duration{
		10 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour,
		12 * time.Hour, 48 * time.Hour,
	}
	results, best := sweepIntervals(t0, span, failures, cfg, intervals)
	if len(results) != len(intervals) {
		t.Fatalf("results = %d", len(results))
	}
	if best == 0 || best == len(intervals)-1 {
		t.Fatalf("optimum at boundary (index %d); efficiencies:", best)
	}
	// Young's estimate should be competitive: simulated efficiency at
	// the nearest grid point within a few points of the sweep optimum.
	young := YoungInterval(cfg.CheckpointCost, MTBF(failures))
	nearest := 0
	for i, iv := range intervals {
		if absDur(iv-young) < absDur(intervals[nearest]-young) {
			nearest = i
		}
	}
	if results[best].Outcome.Efficiency()-results[nearest].Outcome.Efficiency() > 0.05 {
		t.Fatalf("Young estimate %v (eff %.4f) far from optimum %v (eff %.4f)",
			young, results[nearest].Outcome.Efficiency(),
			results[best].Interval, results[best].Outcome.Efficiency())
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestDefaultIntervalGrid(t *testing.T) {
	failures := failuresEvery(10, 24*time.Hour)
	grid := DefaultIntervalGrid(5*time.Minute, failures)
	if len(grid) != 8 {
		t.Fatalf("grid size = %d", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] < grid[i-1] {
			t.Fatalf("grid not nondecreasing: %v", grid)
		}
	}
	// No failures: still a usable grid around the 4h default.
	empty := DefaultIntervalGrid(5*time.Minute, nil)
	if len(empty) != 8 || empty[3] != 4*time.Hour {
		t.Fatalf("fallback grid = %v", empty)
	}
}
