package faults

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"bglpred/internal/catalog"
)

var (
	t0       = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)
	fullSpan = 100 * 24 * time.Hour
)

func sub(name string) *catalog.Subcategory { return catalog.MustByName(name) }

func testChain() Chain {
	return Chain{
		Name:         "test",
		Precursors:   []*catalog.Subcategory{sub("coredumpCreated")},
		PrecursorGap: Delay{Mean: time.Minute},
		FatalGap:     Delay{Min: time.Minute, Mean: 5 * time.Minute, Max: 30 * time.Minute},
		Fatal:        sub("loadProgramFailure"),
		Confidence:   0.6,
		Episodes:     200,
	}
}

func testCascade() Cascade {
	return Cascade{
		Name: "test-storm",
		Members: []Weighted{
			{Sub: sub("socketReadFailure"), Weight: 2},
			{Sub: sub("torusFailure"), Weight: 1},
		},
		ExtraMean: 2,
		Gap:       Delay{Min: 330 * time.Second, Mean: 7 * time.Minute, Max: 50 * time.Minute},
		Episodes:  100,
	}
}

func testModel() Model {
	return Model{
		Chains:   []Chain{testChain()},
		Cascades: []Cascade{testCascade()},
		Isolated: []Isolated{{Sub: sub("kernelPanicFailure"), Episodes: 50}},
		Noise:    []Noise{{Sub: sub("scrubCycleInfo"), PerDay: 10}},
	}
}

func TestValidateAcceptsGoodModel(t *testing.T) {
	m := testModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := map[string]func(*Model){
		"nonfatal chain head": func(m *Model) { m.Chains[0].Fatal = sub("scrubCycleInfo") },
		"nil chain head":      func(m *Model) { m.Chains[0].Fatal = nil },
		"fatal precursor":     func(m *Model) { m.Chains[0].Precursors[0] = sub("torusFailure") },
		"no precursors":       func(m *Model) { m.Chains[0].Precursors = nil },
		"confidence 0":        func(m *Model) { m.Chains[0].Confidence = 0 },
		"confidence > 1":      func(m *Model) { m.Chains[0].Confidence = 1.1 },
		"bad drop":            func(m *Model) { m.Chains[0].PrecursorDrop = 1 },
		"no chain episodes":   func(m *Model) { m.Chains[0].Episodes = 0 },
		"no cascade members":  func(m *Model) { m.Cascades[0].Members = nil },
		"nonfatal member":     func(m *Model) { m.Cascades[0].Members[0].Sub = sub("maskInfo") },
		"zero weight":         func(m *Model) { m.Cascades[0].Members[0].Weight = 0 },
		"no cascade episodes": func(m *Model) { m.Cascades[0].Episodes = 0 },
		"fatal cascade pre":   func(m *Model) { m.Cascades[0].Precursors = []*catalog.Subcategory{sub("torusFailure")} },
		"bad precursor prob":  func(m *Model) { m.Cascades[0].PrecursorProb = -0.1 },
		"nonfatal isolated":   func(m *Model) { m.Isolated[0].Sub = sub("maskInfo") },
		"fatal noise":         func(m *Model) { m.Noise[0].Sub = sub("torusFailure") },
		"negative noise":      func(m *Model) { m.Noise[0].PerDay = -1 },
	}
	for name, mutate := range cases {
		m := testModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}

func TestSynthesizeSorted(t *testing.T) {
	m := testModel()
	rng := rand.New(rand.NewPCG(1, 1))
	events := m.Synthesize(rng, t0, t0.Add(fullSpan), fullSpan)
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("events not sorted at %d", i)
		}
	}
	if len(events) == 0 {
		t.Fatal("no events synthesized")
	}
}

func TestSynthesizeCountsNearExpectation(t *testing.T) {
	m := testModel()
	rng := rand.New(rand.NewPCG(2, 2))
	events := m.Synthesize(rng, t0, t0.Add(fullSpan), fullSpan)
	kinds := summarizeKinds(events)

	// Chain fatals: 200 episodes x 0.6 confidence = 120 expected.
	assertNear(t, "chain fatals", kinds[KindChainFatal], 120, 0.35)
	// Cascade fatals: 100 episodes x mean size 3 = 300 expected.
	assertNear(t, "cascade fatals", kinds[KindCascadeFatal], 300, 0.35)
	// Isolated: 50 expected.
	assertNear(t, "isolated", kinds[KindIsolatedFatal], 50, 0.5)
	// Noise: 10/day x 100 days = 1000 expected.
	assertNear(t, "noise", kinds[KindNoise], 1000, 0.2)
}

// summarizeKinds tallies logical events by kind — ground truth for
// calibration tests.
func summarizeKinds(events []LogicalEvent) map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

func assertNear(t *testing.T, what string, got, want int, tol float64) {
	t.Helper()
	if math.Abs(float64(got-want)) > tol*float64(want) {
		t.Errorf("%s = %d, want within %.0f%% of %d", what, got, tol*100, want)
	}
}

func TestSynthesizeScaling(t *testing.T) {
	// Half the span must halve expected counts (rates constant).
	m := testModel()
	rng := rand.New(rand.NewPCG(3, 3))
	half := m.Synthesize(rng, t0, t0.Add(fullSpan/2), fullSpan)
	kinds := summarizeKinds(half)
	assertNear(t, "half-span chain fatals", kinds[KindChainFatal], 60, 0.5)
	assertNear(t, "half-span noise", kinds[KindNoise], 500, 0.3)
}

func TestSynthesizeEmptySpan(t *testing.T) {
	m := testModel()
	rng := rand.New(rand.NewPCG(4, 4))
	if got := m.Synthesize(rng, t0, t0, fullSpan); len(got) != 0 {
		t.Fatalf("empty span produced %d events", len(got))
	}
}

func TestChainStructure(t *testing.T) {
	// Within one completed chain episode, precursors precede the fatal.
	m := Model{Chains: []Chain{testChain()}}
	rng := rand.New(rand.NewPCG(5, 5))
	events := m.Synthesize(rng, t0, t0.Add(fullSpan), fullSpan)
	byEpisode := map[int][]LogicalEvent{}
	for _, e := range events {
		byEpisode[e.Episode] = append(byEpisode[e.Episode], e)
	}
	completed, aborted := 0, 0
	for ep, evs := range byEpisode {
		var fatalAt time.Time
		hasFatal := false
		for _, e := range evs {
			if e.Kind == KindChainFatal {
				hasFatal = true
				fatalAt = e.Time
			}
		}
		if hasFatal {
			completed++
			for _, e := range evs {
				if e.Kind == KindChainPrecursor && e.Time.After(fatalAt) {
					t.Fatalf("episode %d: precursor after fatal", ep)
				}
			}
		} else {
			aborted++
			for _, e := range evs {
				if e.Kind != KindChainAbortedPrecursor {
					t.Fatalf("episode %d: fatal-less episode has kind %v", ep, e.Kind)
				}
			}
		}
	}
	if completed == 0 || aborted == 0 {
		t.Fatalf("completed=%d aborted=%d; want both > 0 at confidence 0.6", completed, aborted)
	}
	ratio := float64(completed) / float64(completed+aborted)
	if ratio < 0.45 || ratio > 0.75 {
		t.Fatalf("completion ratio %v far from confidence 0.6", ratio)
	}
}

func TestCascadeGapRespectsMinimum(t *testing.T) {
	m := Model{Cascades: []Cascade{testCascade()}}
	rng := rand.New(rand.NewPCG(6, 6))
	events := m.Synthesize(rng, t0, t0.Add(fullSpan), fullSpan)
	byEpisode := map[int][]LogicalEvent{}
	for _, e := range events {
		byEpisode[e.Episode] = append(byEpisode[e.Episode], e)
	}
	for ep, evs := range byEpisode {
		for i := 1; i < len(evs); i++ {
			gap := evs[i].Time.Sub(evs[i-1].Time)
			if gap < 330*time.Second {
				t.Fatalf("episode %d: cascade gap %v below configured min", ep, gap)
			}
			if gap > 50*time.Minute {
				t.Fatalf("episode %d: cascade gap %v above configured max", ep, gap)
			}
		}
	}
}

func TestCascadePrecursorsEmitted(t *testing.T) {
	c := testCascade()
	c.Precursors = []*catalog.Subcategory{sub("midplaneServiceWarning")}
	c.PrecursorProb = 0.5
	c.LeadGap = Delay{Min: time.Minute, Mean: 5 * time.Minute}
	m := Model{Cascades: []Cascade{c}}
	rng := rand.New(rand.NewPCG(7, 7))
	events := m.Synthesize(rng, t0, t0.Add(fullSpan), fullSpan)
	kinds := summarizeKinds(events)
	if kinds[KindCascadePrecursor] == 0 {
		t.Fatal("no cascade precursors emitted at probability 0.5")
	}
	// Roughly half the ~100 episodes should carry the one precursor.
	assertNear(t, "cascade precursors", kinds[KindCascadePrecursor], 50, 0.5)
}

func TestExpectedFatals(t *testing.T) {
	m := testModel()
	exp := m.ExpectedFatals()
	// Chain: 200 x 0.6 = 120 Application fatals.
	if got := exp[catalog.Application]; math.Abs(got-120) > 1e-9 {
		t.Errorf("Application expected = %v, want 120", got)
	}
	// Cascade: 100 episodes x 3 members; 2/3 iostream, 1/3 network.
	if got := exp[catalog.Iostream]; math.Abs(got-200) > 1e-9 {
		t.Errorf("Iostream expected = %v, want 200", got)
	}
	if got := exp[catalog.Network]; math.Abs(got-100) > 1e-9 {
		t.Errorf("Network expected = %v, want 100", got)
	}
	// Isolated kernel panic: 50.
	if got := exp[catalog.Kernel]; math.Abs(got-50) > 1e-9 {
		t.Errorf("Kernel expected = %v, want 50", got)
	}
}

func TestDelayDraw(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	d := Delay{Min: time.Minute, Mean: 2 * time.Minute, Max: 5 * time.Minute}
	var sum time.Duration
	for i := 0; i < 5000; i++ {
		v := d.Draw(rng)
		if v < time.Minute || v > 5*time.Minute {
			t.Fatalf("Draw = %v outside [1m, 5m]", v)
		}
		sum += v
	}
	mean := sum / 5000
	// Truncation pulls the mean below Min+Mean = 3m; it must still be
	// well above Min.
	if mean < 90*time.Second || mean > 3*time.Minute {
		t.Fatalf("mean draw %v implausible", mean)
	}
	zero := Delay{}
	if zero.Draw(rng) != 0 {
		t.Fatal("zero delay should draw 0")
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for _, mean := range []float64{0.5, 4, 40, 800} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(rng, mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("poisson(%v) sample mean %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("nonpositive mean should give 0")
	}
}

func TestGeometricMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	for _, mean := range []float64{0.5, 2, 10} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += geometric(rng, mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.08*mean+0.05 {
			t.Errorf("geometric(%v) sample mean %v", mean, got)
		}
	}
	if geometric(rng, 0) != 0 {
		t.Error("zero mean should give 0")
	}
}

func TestKindString(t *testing.T) {
	if KindChainFatal.String() != "chain-fatal" || Kind(99).String() != "Kind(99)" {
		t.Error("Kind.String misbehaves")
	}
}

func TestFatalByMain(t *testing.T) {
	events := []LogicalEvent{
		{Sub: sub("torusFailure"), Kind: KindCascadeFatal},
		{Sub: sub("socketReadFailure"), Kind: KindCascadeFatal},
		{Sub: sub("scrubCycleInfo"), Kind: KindNoise},
	}
	got := FatalByMain(events)
	if got[catalog.Network] != 1 || got[catalog.Iostream] != 1 || len(got) != 2 {
		t.Fatalf("FatalByMain = %v", got)
	}
}
