package preprocess

import (
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/bglsim/faults"
	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

var t0 = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)

// rec builds a raw record of the given subcategory.
func rec(id int64, at time.Time, subName string, job int64, loc raslog.Location, detail string) raslog.Event {
	sub := catalog.MustByName(subName)
	return raslog.Event{
		RecID:     id,
		Type:      raslog.EventTypeRAS,
		Time:      at,
		JobID:     job,
		Location:  loc,
		EntryData: sub.Phrase + detail,
		Facility:  sub.Facility,
		Severity:  sub.Severity,
	}
}

var (
	chipA = raslog.Location{Kind: raslog.KindComputeChip, Rack: 0, Midplane: 0, Card: 1, Chip: 2}
	chipB = raslog.Location{Kind: raslog.KindComputeChip, Rack: 0, Midplane: 0, Card: 3, Chip: 4}
	chipC = raslog.Location{Kind: raslog.KindComputeChip, Rack: 0, Midplane: 1, Card: 5, Chip: 6}
)

func TestTemporalCompressionMergesSameLocation(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, " at 0x01"),
		rec(2, t0.Add(10*time.Second), "torusFailure", 7, chipA, " at 0x01"),
		rec(3, t0.Add(299*time.Second), "torusFailure", 7, chipA, " at 0x01"),
	}
	res := Run(raw, Options{})
	if len(res.Events) != 1 {
		t.Fatalf("got %d unique events, want 1", len(res.Events))
	}
	ue := res.Events[0]
	if ue.Count != 3 || ue.Locations != 1 || ue.RecID != 1 {
		t.Fatalf("merged event = %+v", ue)
	}
	if res.Stats.AfterTemporal != 1 || res.Stats.FatalUnique != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestTemporalCompressionRespectsThreshold(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, " at 0x01"),
		rec(2, t0.Add(301*time.Second), "torusFailure", 7, chipA, " at 0x02"),
	}
	res := Run(raw, Options{})
	if len(res.Events) != 2 {
		t.Fatalf("got %d unique events, want 2 (gap exceeds threshold)", len(res.Events))
	}
}

func TestTemporalCompressionSlidingWindow(t *testing.T) {
	// Records 4 minutes apart chain beyond a single 300 s window; the
	// sliding merge keeps them as one unique event.
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, " at 0x01"),
		rec(2, t0.Add(4*time.Minute), "torusFailure", 7, chipA, " at 0x01"),
		rec(3, t0.Add(8*time.Minute), "torusFailure", 7, chipA, " at 0x01"),
	}
	res := Run(raw, Options{})
	if len(res.Events) != 1 {
		t.Fatalf("got %d unique events, want 1 (sliding window)", len(res.Events))
	}
}

func TestTemporalCompressionKeysOnJobAndLocation(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, " at 0x01"),
		rec(2, t0.Add(time.Second), "torusFailure", 8, chipA, " at 0x01"),   // other job
		rec(3, t0.Add(2*time.Second), "torusFailure", 7, chipB, " at 0x01"), // other location
	}
	res := Run(raw, Options{SpatialThreshold: time.Nanosecond})
	if len(res.Events) != 3 {
		t.Fatalf("got %d unique events, want 3 (distinct job/location)", len(res.Events))
	}
}

func TestTemporalCompressionKeysOnCategoryByDefault(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, " at 0x01"),
		rec(2, t0.Add(time.Second), "rtsFailure", 7, chipA, " at 0x02"),
	}
	if got := len(Run(raw, Options{}).Events); got != 2 {
		t.Fatalf("default: got %d unique, want 2 (category in key)", got)
	}
	// Paper-literal mode merges them (same JOB ID + LOCATION).
	res := Run(raw, Options{TemporalKeyIgnoresCategory: true})
	if got := len(res.Events); got != 1 {
		t.Fatalf("paper-literal: got %d unique, want 1", got)
	}
}

func TestSpatialCompressionMergesAcrossLocations(t *testing.T) {
	// Same entry data + job from three locations within the threshold:
	// one unique event with Locations=3.
	raw := []raslog.Event{
		rec(1, t0, "socketReadFailure", 7, chipA, " rc=-5"),
		rec(2, t0.Add(30*time.Second), "socketReadFailure", 7, chipB, " rc=-5"),
		rec(3, t0.Add(60*time.Second), "socketReadFailure", 7, chipC, " rc=-5"),
	}
	res := Run(raw, Options{})
	if len(res.Events) != 1 {
		t.Fatalf("got %d unique events, want 1", len(res.Events))
	}
	ue := res.Events[0]
	if ue.Locations != 3 || ue.Count != 3 {
		t.Fatalf("merged event = %+v", ue)
	}
	if res.Stats.AfterTemporal != 3 || res.Stats.AfterSpatial != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestSpatialCompressionRequiresSameEntryAndJob(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "socketReadFailure", 7, chipA, " rc=-5"),
		rec(2, t0.Add(10*time.Second), "socketReadFailure", 7, chipB, " rc=-6"), // different entry
		rec(3, t0.Add(20*time.Second), "socketReadFailure", 8, chipC, " rc=-5"), // different job
	}
	res := Run(raw, Options{})
	if len(res.Events) != 3 {
		t.Fatalf("got %d unique events, want 3", len(res.Events))
	}
}

// TestSpatialCompressionSkipsSameLocation pins the §3.1 reading that
// spatial compression merges reports "from different locations": a
// same-location repeat that survived temporal compression must start
// a new unique event, not vanish into the standing spatial window
// (which record 2 kept alive past record 1's temporal horizon).
func TestSpatialCompressionSkipsSameLocation(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "socketReadFailure", 7, chipA, " rc=-5"),
		rec(2, t0.Add(30*time.Second), "socketReadFailure", 7, chipB, " rc=-5"), // merges: other location
		rec(3, t0.Add(60*time.Second), "socketReadFailure", 7, chipA, " rc=-5"), // same location as representative
	}
	// Temporal compression would swallow record 3 at chipA first; keep
	// it alive by spacing it past the temporal threshold.
	raw[2].Time = t0.Add(301 * time.Second)
	res := Run(raw, Options{})
	if len(res.Events) != 2 {
		t.Fatalf("got %d unique events, want 2 (same-location repeat must survive)", len(res.Events))
	}
	if res.Events[0].Count != 2 || res.Events[1].RecID != 3 {
		t.Fatalf("events = %+v", res.Events)
	}
}

func TestUnclassifiedDropped(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, ""),
		{RecID: 2, Type: "RAS", Time: t0, JobID: 1, Location: chipA,
			EntryData: "gibberish nobody understands", Facility: "NOPE", Severity: raslog.Info},
	}
	res := Run(raw, Options{})
	if len(res.Events) != 1 || res.Stats.Unclassified != 1 {
		t.Fatalf("events=%d unclassified=%d", len(res.Events), res.Stats.Unclassified)
	}
}

func TestRunEmpty(t *testing.T) {
	res := Run(nil, Options{})
	if len(res.Events) != 0 || res.Stats.Input != 0 || res.Stats.CompressionRatio() != 0 {
		t.Fatalf("empty run: %+v", res.Stats)
	}
}

func TestOutputSortedAndCountsConsistent(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(gen.Events, Options{})
	total := 0
	for i := range res.Events {
		if i > 0 && res.Events[i].Time.Before(res.Events[i-1].Time) {
			t.Fatalf("output not sorted at %d", i)
		}
		if res.Events[i].Count < 1 || res.Events[i].Locations < 1 {
			t.Fatalf("bad counts at %d: %+v", i, res.Events[i])
		}
		total += res.Events[i].Count
	}
	if total+res.Stats.Unclassified != res.Stats.Input {
		t.Fatalf("count conservation: %d merged + %d dropped != %d input",
			total, res.Stats.Unclassified, res.Stats.Input)
	}
}

func TestCompressionRecoversLogicalFatalEvents(t *testing.T) {
	// The pipeline must recover the simulator's logical fatal events:
	// every logical fatal maps to exactly one unique fatal event
	// (the central guarantee Phase 1 provides to Phases 2-3).
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(gen.Events, Options{})

	logicalFatal := 0
	for _, le := range gen.Logical {
		if le.Sub.IsFatal() {
			logicalFatal++
		}
	}
	got := res.Stats.FatalUnique
	// Tolerate a few percent slack: cascade members of the same
	// subcategory occasionally merge, and spread jitter can split an
	// event across a threshold boundary.
	if got < logicalFatal*95/100 || got > logicalFatal*105/100 {
		t.Fatalf("unique fatal = %d, logical fatal = %d; want within 5%%", got, logicalFatal)
	}
}

func TestCompressionRecoversCategoryDistribution(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(gen.Events, Options{})
	want := faults.FatalByMain(gen.Logical)
	got := CountByMain(res.Events, true)
	for _, m := range catalog.Mains() {
		w := want[m]
		g := got[m]
		if w == 0 {
			continue
		}
		diff := g - w
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.10*float64(w)+3 {
			t.Errorf("%v: unique=%d logical=%d", m, g, w)
		}
	}
}

func TestCompressionRatioHigh(t *testing.T) {
	// CMCS logs are overwhelmingly duplicates; Phase 1 should eliminate
	// well above 90% of raw records (Liang et al. report >99%).
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(gen.Events, Options{})
	if r := res.Stats.CompressionRatio(); r < 0.9 {
		t.Fatalf("compression ratio %.3f, want > 0.9", r)
	}
}

func TestFatalFilter(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, ""),
		rec(2, t0.Add(10*time.Minute), "scrubCycleInfo", 7, chipA, ""),
	}
	res := Run(raw, Options{})
	f := Fatal(res.Events)
	if len(f) != 1 || f[0].Sub.Name != "torusFailure" {
		t.Fatalf("Fatal = %v", f)
	}
}

func TestCountBySubcategory(t *testing.T) {
	raw := []raslog.Event{
		rec(1, t0, "torusFailure", 7, chipA, ""),
		rec(2, t0.Add(10*time.Minute), "torusFailure", 8, chipB, " x"),
		rec(3, t0.Add(20*time.Minute), "scrubCycleInfo", 7, chipA, ""),
	}
	res := Run(raw, Options{})
	all := CountBySubcategory(res.Events, false)
	if all["torusFailure"] != 2 || all["scrubCycleInfo"] != 1 {
		t.Fatalf("all = %v", all)
	}
	fatal := CountBySubcategory(res.Events, true)
	if fatal["torusFailure"] != 2 || fatal["scrubCycleInfo"] != 0 {
		t.Fatalf("fatal = %v", fatal)
	}
}

func TestParallelClassificationMatchesSequential(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.SDSCProfile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Events) < shardMinRecords {
		t.Fatalf("only %d records; the Workers: 8 run would not exercise sharded compression", len(gen.Events))
	}
	seq := Run(gen.Events, Options{Workers: 1})
	par := Run(gen.Events, Options{Workers: 8})
	if seq.Stats != par.Stats {
		t.Fatalf("stats differ: sequential %+v, sharded %+v", seq.Stats, par.Stats)
	}
	for i := range seq.Events {
		s, p := &seq.Events[i], &par.Events[i]
		if s.RecID != p.RecID || s.Count != p.Count || s.Locations != p.Locations {
			t.Fatalf("event %d differs between sharded and sequential: %+v vs %+v", i, s, p)
		}
	}
}

func BenchmarkPreprocessANL1pct(b *testing.B) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportMetric(float64(len(gen.Events)), "records")
	for i := 0; i < b.N; i++ {
		Run(gen.Events, Options{})
	}
}
