package ftsim

import (
	"math"
	"time"
)

// YoungInterval returns Young's classic approximation of the optimal
// periodic checkpoint interval, sqrt(2 * C * MTBF), for checkpoint
// cost C — the baseline any checkpointing study tunes against.
func YoungInterval(checkpointCost, mtbf time.Duration) time.Duration {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0
	}
	return time.Duration(math.Sqrt(2 * float64(checkpointCost) * float64(mtbf)))
}

// MTBF returns the mean time between consecutive failures, or 0 for
// fewer than two failures. The input must be sorted ascending.
func MTBF(failures []time.Time) time.Duration {
	if len(failures) < 2 {
		return 0
	}
	span := failures[len(failures)-1].Sub(failures[0])
	return span / time.Duration(len(failures)-1)
}

// DefaultIntervalGrid returns a geometric grid of candidate intervals
// around Young's estimate for the observed failure trace.
func DefaultIntervalGrid(checkpointCost time.Duration, failures []time.Time) []time.Duration {
	young := YoungInterval(checkpointCost, MTBF(failures))
	if young == 0 {
		young = 4 * time.Hour
	}
	factors := []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4}
	out := make([]time.Duration, len(factors))
	for i, f := range factors {
		out[i] = time.Duration(float64(young) * f).Round(time.Minute)
		if out[i] < time.Minute {
			out[i] = time.Minute
		}
	}
	return out
}
