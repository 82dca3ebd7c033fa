package jobs

import (
	"math/rand/v2"
	"testing"
	"time"

	"bglpred/internal/bglsim/topology"
)

var (
	t0 = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)
	t1 = t0.Add(30 * 24 * time.Hour)
)

func simulate(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	return Simulate(rng, topology.New(topology.Config{}), t0, t1, cfg)
}

func TestSimulateProducesJobs(t *testing.T) {
	s := simulate(t, Config{})
	if len(s.Jobs()) == 0 {
		t.Fatal("no jobs simulated")
	}
	// A month at ~4h mean runtime across 2 midplanes should produce on
	// the order of a hundred-plus jobs.
	if n := len(s.Jobs()); n < 50 || n > 1000 {
		t.Fatalf("job count %d implausible for 30 days x 2 midplanes", n)
	}
}

func TestJobsWellFormed(t *testing.T) {
	s := simulate(t, Config{})
	seen := map[int64]bool{}
	for i := range s.Jobs() {
		j := &s.Jobs()[i]
		if seen[j.ID] {
			t.Fatalf("duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
		if !j.End.After(j.Start) {
			t.Fatalf("job %d has non-positive duration", j.ID)
		}
		if j.Start.Before(t0) || j.End.After(t1) {
			t.Fatalf("job %d [%v, %v] escapes span", j.ID, j.Start, j.End)
		}
		if j.Duration() != j.End.Sub(j.Start) {
			t.Fatalf("Duration inconsistent")
		}
	}
}

func TestJobsDoNotOverlapPerMidplane(t *testing.T) {
	s := simulate(t, Config{})
	last := map[string]time.Time{}
	for i := range s.Jobs() {
		j := &s.Jobs()[i]
		key := j.Midplane.String()
		if prev, ok := last[key]; ok && j.Start.Before(prev) {
			t.Fatalf("job %d on %s overlaps previous job", j.ID, key)
		}
		last[key] = j.End
	}
}

func TestJobAt(t *testing.T) {
	s := simulate(t, Config{})
	jobs := s.Jobs()
	j := &jobs[len(jobs)/2]
	mid := j.Start.Add(j.Duration() / 2)

	got, ok := s.JobAt(mid, j.Midplane)
	if !ok || got.ID != j.ID {
		t.Fatalf("JobAt(mid) = %v, %v; want job %d", got, ok, j.ID)
	}
	// Exactly at start: running. Exactly at end: not running.
	if got, ok := s.JobAt(j.Start, j.Midplane); !ok || got.ID != j.ID {
		t.Fatalf("JobAt(start) = %v, %v", got, ok)
	}
	if got, ok := s.JobAt(j.End, j.Midplane); ok && got.ID == j.ID {
		t.Fatalf("JobAt(end) returned the ended job")
	}
	// Before everything: nothing.
	if _, ok := s.JobAt(t0.Add(-time.Hour), j.Midplane); ok {
		t.Fatal("JobAt before span returned a job")
	}
	// Unknown midplane: nothing.
	if _, ok := s.JobAt(mid, topology.New(topology.Config{Racks: 2}).Midplanes()[3]); ok {
		t.Fatal("JobAt on foreign midplane returned a job")
	}
}

func TestJobAtConsistentWithIntervals(t *testing.T) {
	s := simulate(t, Config{})
	rng := rand.New(rand.NewPCG(5, 6))
	m := topology.New(topology.Config{})
	for i := 0; i < 500; i++ {
		at := t0.Add(time.Duration(rng.Int64N(int64(t1.Sub(t0)))))
		mp := m.Midplanes()[rng.IntN(2)]
		got, ok := s.JobAt(at, mp)
		// Brute-force check.
		var want *Job
		for k := range s.Jobs() {
			j := &s.Jobs()[k]
			if j.Midplane == mp && !at.Before(j.Start) && at.Before(j.End) {
				want = j
				break
			}
		}
		switch {
		case want == nil && ok:
			t.Fatalf("JobAt(%v, %v) = job %d, want none", at, mp, got.ID)
		case want != nil && !ok:
			t.Fatalf("JobAt(%v, %v) = none, want job %d", at, mp, want.ID)
		case want != nil && got.ID != want.ID:
			t.Fatalf("JobAt(%v, %v) = job %d, want %d", at, mp, got.ID, want.ID)
		}
	}
}

// utilization is the fraction of midplane-time occupied by jobs over
// [start, end).
func utilization(s *Schedule, start, end time.Time) float64 {
	var busy time.Duration
	for _, j := range s.jobs {
		b, e := j.Start, j.End
		if b.Before(start) {
			b = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(b) {
			busy += e.Sub(b)
		}
	}
	return float64(busy) / float64(end.Sub(start)*time.Duration(len(s.byMidplane)))
}

func TestUtilizationHigh(t *testing.T) {
	s := simulate(t, Config{})
	u := utilization(s, t0, t1)
	// Mean gap 20 min vs mean runtime 4 h: utilization should be high
	// but not 1.
	if u < 0.75 || u >= 1 {
		t.Fatalf("utilization = %v, want in [0.75, 1)", u)
	}
}

func TestConfigDefaultsRespectOverrides(t *testing.T) {
	cfg := Config{MeanDuration: time.Hour, MinDuration: time.Minute, MeanGap: time.Hour}
	s := simulate(t, cfg)
	var total time.Duration
	for i := range s.Jobs() {
		j := &s.Jobs()[i]
		if j.Duration() < time.Minute {
			// Jobs clipped at span end may be shorter; allow those.
			if j.End.Before(t1) {
				t.Fatalf("job %d shorter than MinDuration", j.ID)
			}
		}
		total += j.Duration()
	}
	mean := total / time.Duration(len(s.Jobs()))
	if mean < 30*time.Minute || mean > 2*time.Hour {
		t.Fatalf("mean duration %v far from configured 1h", mean)
	}
}
