// Package jobs simulates the Blue Gene/L workload: a stream of
// scientific-computing jobs scheduled onto midplane partitions. RAS
// records carry the JOB ID of the job that detected the event
// (paper Table 2), and the CMCS duplication the preprocessor must undo
// comes from every chip of a job's partition reporting the same fault,
// so the generator needs to know which job occupies which midplane at
// any instant.
package jobs

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"bglpred/internal/bglsim/topology"
	"bglpred/internal/raslog"
)

// Job is one scheduled job occupying a single midplane partition for
// [Start, End).
type Job struct {
	ID       int64
	Start    time.Time
	End      time.Time
	Midplane raslog.Location
}

// Duration returns the job's runtime.
func (j *Job) Duration() time.Duration { return j.End.Sub(j.Start) }

// Config shapes the synthetic workload. Zero values select defaults
// typical of capability systems: multi-hour jobs with short drain gaps
// between them.
type Config struct {
	// MeanDuration is the mean job runtime; default 4h.
	MeanDuration time.Duration
	// MinDuration floors job runtimes; default 10min.
	MinDuration time.Duration
	// MeanGap is the mean idle gap between consecutive jobs on one
	// midplane; default 20min.
	MeanGap time.Duration
}

func (c Config) withDefaults() Config {
	if c.MeanDuration == 0 {
		c.MeanDuration = 4 * time.Hour
	}
	if c.MinDuration == 0 {
		c.MinDuration = 10 * time.Minute
	}
	if c.MeanGap == 0 {
		c.MeanGap = 20 * time.Minute
	}
	return c
}

// Schedule is the complete simulated job history, queryable by
// (time, midplane).
type Schedule struct {
	jobs       []Job
	byMidplane map[raslog.Location][]int // job indices sorted by start
}

// Simulate fills the span [start, end) with back-to-back jobs on every
// midplane of the machine. Each midplane runs an independent renewal
// process: exponential idle gap, then a job with exponential runtime
// (floored at MinDuration).
func Simulate(rng *rand.Rand, m *topology.Machine, start, end time.Time, cfg Config) *Schedule {
	cfg = cfg.withDefaults()
	s := &Schedule{byMidplane: make(map[raslog.Location][]int)}
	var nextID int64 = 1000 // arbitrary base so job IDs look realistic
	for _, mp := range m.Midplanes() {
		t := start
		for t.Before(end) {
			gap := expDuration(rng, cfg.MeanGap)
			runStart := t.Add(gap)
			if !runStart.Before(end) {
				break
			}
			dur := expDuration(rng, cfg.MeanDuration)
			if dur < cfg.MinDuration {
				dur = cfg.MinDuration
			}
			runEnd := runStart.Add(dur)
			if runEnd.After(end) {
				runEnd = end
			}
			s.byMidplane[mp] = append(s.byMidplane[mp], len(s.jobs))
			s.jobs = append(s.jobs, Job{ID: nextID, Start: runStart, End: runEnd, Midplane: mp})
			nextID++
			t = runEnd
		}
	}
	return s
}

// expDuration draws an exponential duration with the given mean.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-math.Log(1-rng.Float64()) * float64(mean))
}

// Jobs returns all jobs in scheduling order. The slice is shared;
// callers must not mutate it.
func (s *Schedule) Jobs() []Job { return s.jobs }

// JobAt returns the job running on midplane mp at time t, if any.
func (s *Schedule) JobAt(t time.Time, mp raslog.Location) (*Job, bool) {
	idxs := s.byMidplane[mp]
	// Last job starting at or before t.
	i := sort.Search(len(idxs), func(i int) bool {
		return s.jobs[idxs[i]].Start.After(t)
	}) - 1
	if i < 0 {
		return nil, false
	}
	j := &s.jobs[idxs[i]]
	if t.Before(j.End) {
		return j, true
	}
	return nil, false
}
