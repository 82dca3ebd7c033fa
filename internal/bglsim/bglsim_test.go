package bglsim

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"bglpred/internal/bglsim/faults"
	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

func generateScaled(t *testing.T, p Profile, scale float64) *Result {
	t.Helper()
	res, err := Generate(p.Scaled(scale))
	if err != nil {
		t.Fatalf("Generate(%s): %v", p.Name, err)
	}
	return res
}

func TestGenerateDeterministic(t *testing.T) {
	p := ANLProfile().Scaled(0.02)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("non-deterministic: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between runs", i)
		}
	}
}

func TestGenerateEventsWellFormed(t *testing.T) {
	res := generateScaled(t, ANLProfile(), 0.02)
	if len(res.Events) == 0 {
		t.Fatal("no events")
	}
	p := res.Profile
	for i := range res.Events {
		e := &res.Events[i]
		if err := e.Validate(); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		if e.RecID != int64(i+1) {
			t.Fatalf("event %d has RecID %d", i, e.RecID)
		}
		if e.Time.Before(p.Start) || e.Time.After(p.End.Add(p.Dup.Spread)) {
			t.Fatalf("event %d time %v escapes span", i, e.Time)
		}
		if !e.Time.Equal(e.Time.Truncate(time.Second)) {
			t.Fatalf("event %d has sub-second timestamp (CMCS records whole seconds)", i)
		}
		if e.Location.Kind == raslog.KindUnknown {
			t.Fatalf("event %d has unknown location", i)
		}
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Before(&res.Events[i-1]) {
			t.Fatalf("event %d is before event %d", i, i-1)
		}
	}
}

func TestGenerateEventsClassifiable(t *testing.T) {
	// Every generated record must classify back to the subcategory that
	// produced it — the simulator and Phase 1 must agree end to end.
	res := generateScaled(t, SDSCProfile(), 0.02)
	c := catalog.NewClassifier()
	for i := range res.Events {
		e := &res.Events[i]
		s, ok := c.Classify(e)
		if !ok {
			t.Fatalf("event %d unclassifiable: %q", i, e.EntryData)
		}
		if s.Severity != e.Severity || s.Facility != e.Facility {
			t.Fatalf("event %d classified as %s but severity/facility mismatch: %v", i, s.Name, e)
		}
	}
}

func TestGenerateDuplicationExpands(t *testing.T) {
	res := generateScaled(t, ANLProfile(), 0.02)
	if len(res.Events) < 5*len(res.Logical) {
		t.Fatalf("duplication factor %.1f too low; CMCS logs are heavily duplicated",
			float64(len(res.Events))/float64(len(res.Logical)))
	}
}

func TestGenerateJobAttribution(t *testing.T) {
	res := generateScaled(t, ANLProfile(), 0.02)
	withJob := 0
	for i := range res.Events {
		e := &res.Events[i]
		if e.JobID != raslog.NoJob {
			withJob++
			job, ok := res.Schedule.JobAt(e.Time.Add(-res.Profile.Dup.Spread), e.Location.MidplaneOf())
			if !ok {
				// The duplicate jitter may land just past the job end;
				// accept if a job covers the undithered time.
				continue
			}
			if job.ID != e.JobID {
				// Distinct overlapping jobs can't exist per midplane, so
				// the ID must match the resident job.
				t.Fatalf("event %d attributed to job %d but %d resident", i, e.JobID, job.ID)
			}
		}
	}
	if withJob == 0 {
		t.Fatal("no events carry job attribution")
	}
}

// tolerancePct asserts got within pct% of want.
func tolerancePct(t *testing.T, what string, got, want, pct float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if math.Abs(got-want)/want > pct/100 {
		t.Errorf("%s = %.0f, want within %.0f%% of %.0f", what, got, pct, want)
	}
}

func TestANLCalibrationAgainstPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test generates a large log")
	}
	const scale = 0.25
	res := generateScaled(t, ANLProfile(), scale)

	// Table 1: 4,172,359 raw records at full scale.
	tolerancePct(t, "ANL raw records", float64(len(res.Events))/scale, 4172359, 20)

	// Table 4: compressed fatal counts by category (here: logical
	// ground truth; preprocess_test checks the pipeline recovers them).
	want := map[catalog.Main]float64{
		catalog.Application: 762, catalog.Iostream: 1173,
		catalog.Kernel: 224, catalog.Memory: 52, catalog.Midplane: 102,
		catalog.Network: 482, catalog.NodeCard: 20, catalog.Other: 8,
	}
	got := faults.FatalByMain(res.Logical)
	for m, w := range want {
		mean := w * scale
		pct := 15 + 400/math.Sqrt(mean)
		tolerancePct(t, "ANL fatal "+m.String(), float64(got[m])/scale, w, pct)
	}
}

func TestSDSCCalibrationAgainstPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test generates a large log")
	}
	const scale = 0.25
	res := generateScaled(t, SDSCProfile(), scale)
	tolerancePct(t, "SDSC raw records", float64(len(res.Events))/scale, 428953, 20)

	want := map[catalog.Main]float64{
		catalog.Application: 587, catalog.Iostream: 905,
		catalog.Kernel: 182, catalog.Memory: 25, catalog.Midplane: 97,
		catalog.Network: 366, catalog.NodeCard: 17, catalog.Other: 3,
	}
	got := faults.FatalByMain(res.Logical)
	for m, w := range want {
		// Expected counts at this scale are small, so allow ~4 sigma of
		// Poisson noise on top of a 15% calibration budget.
		mean := w * scale
		pct := 15 + 400/math.Sqrt(mean)
		tolerancePct(t, "SDSC fatal "+m.String(), float64(got[m])/scale, w, pct)
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Faults.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Span() <= 0 || p.FullSpan <= 0 {
			t.Errorf("%s: bad span", p.Name)
		}
	}
}

func TestProfileExpectedFatalsMatchTable4(t *testing.T) {
	// The analytic expectation (no sampling noise) must sit very close
	// to the paper's Table 4.
	want := map[string]map[catalog.Main]float64{
		"ANL": {
			catalog.Application: 762, catalog.Iostream: 1173,
			catalog.Kernel: 224, catalog.Memory: 52, catalog.Midplane: 102,
			catalog.Network: 482, catalog.NodeCard: 20, catalog.Other: 8,
		},
		"SDSC": {
			catalog.Application: 587, catalog.Iostream: 905,
			catalog.Kernel: 182, catalog.Memory: 25, catalog.Midplane: 97,
			catalog.Network: 366, catalog.NodeCard: 17, catalog.Other: 3,
		},
	}
	for _, p := range Profiles() {
		exp := p.Faults.ExpectedFatals()
		for m, w := range want[p.Name] {
			tolerancePct(t, p.Name+" expected "+m.String(), exp[m], w, 12)
		}
	}
}

func TestScaled(t *testing.T) {
	p := ANLProfile()
	half := p.Scaled(0.5)
	if got, want := half.Span(), p.FullSpan/2; got != want {
		t.Fatalf("Scaled(0.5).Span = %v, want %v", got, want)
	}
	two := p.Scaled(2)
	if two.Span() != p.FullSpan {
		t.Fatal("Scaled should clamp above 1")
	}
	neg := p.Scaled(-1)
	if neg.Span() <= 0 {
		t.Fatal("Scaled should clamp nonpositive scales")
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("ANL"); !ok || p.Name != "ANL" {
		t.Fatal("ProfileByName(ANL) failed")
	}
	if p, ok := ProfileByName("SDSC"); !ok || p.Name != "SDSC" {
		t.Fatal("ProfileByName(SDSC) failed")
	}
	if _, ok := ProfileByName("LLNL"); ok {
		t.Fatal("ProfileByName(LLNL) should fail")
	}
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	p := ANLProfile()
	p.End = p.Start
	if _, err := Generate(p); err == nil {
		t.Error("empty span accepted")
	}
	p = ANLProfile()
	p.Faults.Chains[0].Confidence = 2
	if _, err := Generate(p); err == nil {
		t.Error("invalid fault model accepted")
	}
}

func TestEpisodeSpatialCoherence(t *testing.T) {
	// All raw records of one chain episode must land on one midplane.
	res := generateScaled(t, ANLProfile(), 0.02)
	// Duplicates of one logical event share their entry data; entries
	// with an " at 0x" suffix have a 2^32 detail space, so equal entry
	// text identifies one logical event with near certainty. All its
	// duplicates must sit on one midplane.
	byEntry := map[string]raslog.Location{}
	checked := 0
	for i := range res.Events {
		e := &res.Events[i]
		if !strings.Contains(e.EntryData, " at 0x") {
			continue
		}
		mp := e.Location.MidplaneOf()
		if prev, ok := byEntry[e.EntryData]; ok {
			checked++
			if prev != mp {
				t.Fatalf("duplicates of %q span midplanes %v and %v", e.EntryData, prev, mp)
			}
		} else {
			byEntry[e.EntryData] = mp
		}
	}
	if checked == 0 {
		t.Fatal("no duplicated detailed entries found; test is vacuous")
	}
}

// BenchmarkGenerate generates the benchmark's data set: ANL at scale
// 0.25 on four racks, about a million records.
func BenchmarkGenerate(b *testing.B) {
	p := ANLProfile().Scaled(0.25)
	p.Machine.Racks = 4
	p.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPermOfMatchesPerm draws from twin-seeded generators: the reused
// buffer must hold what rand.Perm returns and leave both streams at
// the same point, also when a call is shorter than the one before.
func TestPermOfMatchesPerm(t *testing.T) {
	ex := expander{rng: rand.New(rand.NewPCG(3, 4))}
	twin := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 2, 7, 512, 7, 2, 1, 0, 512} {
		if got, want := ex.permOf(n), twin.Perm(n); !slices.Equal(got, want) {
			t.Fatalf("permOf(%d) = %v, want %v", n, got, want)
		}
		if got, want := ex.rng.Uint64(), twin.Uint64(); got != want {
			t.Fatalf("after permOf(%d) the stream is at %d, want %d", n, got, want)
		}
	}
}

// TestStorageOrderRefusesOverflowingSpan checks both sides of the
// sort keys' 32-bit second offset: the widest span that fits is
// sorted, one second more is refused.
func TestStorageOrderRefusesOverflowingSpan(t *testing.T) {
	t0 := time.Unix(1_000_000, 0).UTC()
	widest := t0.Add(math.MaxUint32 * time.Second)
	got, err := storageOrder([][]raslog.Event{{{Time: widest}, {Time: t0}}})
	if err != nil {
		t.Fatalf("span of 2^32-1 s: %v", err)
	}
	if !got[0].Time.Equal(t0) || got[0].RecID != 1 || !got[1].Time.Equal(widest) || got[1].RecID != 2 {
		t.Fatalf("span of 2^32-1 s sorted to %+v", got)
	}
	if _, err := storageOrder([][]raslog.Event{{{Time: t0}, {Time: widest.Add(time.Second)}}}); err == nil {
		t.Fatal("span of 2^32 s accepted")
	}
}

func TestHotMidplaneShare(t *testing.T) {
	// The ANL profile routes ~62% of fault episodes to midplane 0.
	// Count distinct logical fatal events (duplicates of one event
	// share their entry text) so the skew is measured per event, not
	// per raw record whose heavy-tailed fanout would swamp it.
	res := generateScaled(t, ANLProfile(), 0.1)
	byEntry := map[string]int{}
	for i := range res.Events {
		e := &res.Events[i]
		if e.Severity.IsFatal() {
			if _, seen := byEntry[e.EntryData]; !seen {
				byEntry[e.EntryData] = e.Location.MidplaneOf().Midplane
			}
		}
	}
	counts := map[int]int{}
	for _, mp := range byEntry {
		counts[mp]++
	}
	total := counts[0] + counts[1]
	if total == 0 {
		t.Fatal("no fatal records")
	}
	share := float64(counts[0]) / float64(total)
	if share < 0.54 || share > 0.70 {
		t.Fatalf("midplane-0 fatal share = %.3f, want ~0.62", share)
	}
}
