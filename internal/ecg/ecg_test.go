package ecg

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

var t0 = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)

// ue builds a unique event of the named subcategory at time at.
func ue(at time.Time, name string) preprocess.Event {
	sub := catalog.MustByName(name)
	return preprocess.Event{
		Event: raslog.Event{
			Type:      raslog.EventTypeRAS,
			Time:      at,
			JobID:     1,
			EntryData: sub.Phrase,
			Facility:  sub.Facility,
			Severity:  sub.Severity,
		},
		Sub:       sub,
		Count:     1,
		Locations: 1,
	}
}

// stream builds a time-ordered event stream from (offset, subcategory)
// pairs.
func stream(pairs ...any) []preprocess.Event {
	var out []preprocess.Event
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, ue(t0.Add(pairs[i].(time.Duration)), pairs[i+1].(string)))
	}
	return out
}

// points is stream's column.
func points(pairs ...any) []preprocess.Point { return preprocess.Points(stream(pairs...)) }

func id(name string) int { return catalog.MustByName(name).ID }

// chainTraining repeats a two-hop correlation episode: a warning, a
// non-fatal error 10 minutes later, a fatal 10 minutes after that.
// With the default 15-minute correlation window the warning never
// sees the fatal directly — only the two-hop chain connects them.
func chainTraining(n int) []preprocess.Event {
	var out []preprocess.Event
	at := t0
	for i := 0; i < n; i++ {
		out = append(out, ue(at, "ddrSingleSymbolWarning"))
		out = append(out, ue(at.Add(10*time.Minute), "machineCheckError"))
		out = append(out, ue(at.Add(20*time.Minute), "dataReadFailure"))
		at = at.Add(6 * time.Hour)
	}
	return out
}

func TestGraphMineCountsAndGaps(t *testing.T) {
	g := NewGraph(15 * time.Minute)
	g.AddSegment(preprocess.Points(chainTraining(8)))

	if got := g.NodeCount(); got != 3 {
		t.Fatalf("NodeCount = %d, want 3", got)
	}
	edges := map[[2]int]Edge{}
	for _, e := range g.Edges() {
		edges[[2]int{e.From, e.To}] = e
	}
	ab, ok := edges[[2]int{id("ddrSingleSymbolWarning"), id("machineCheckError")}]
	if !ok {
		t.Fatalf("missing warning->error edge; edges: %v", g.Edges())
	}
	if ab.Count != 8 || ab.Probability != 1.0 {
		t.Errorf("warning->error edge = count %d p=%v, want 8, 1.0", ab.Count, ab.Probability)
	}
	if ab.MeanGap() != 10*time.Minute || ab.MinGap != 10*time.Minute || ab.MaxGap != 10*time.Minute {
		t.Errorf("warning->error gaps = %v/%v/%v, want 10m each", ab.MeanGap(), ab.MinGap, ab.MaxGap)
	}
	if _, ok := edges[[2]int{id("ddrSingleSymbolWarning"), id("dataReadFailure")}]; ok {
		t.Error("warning->fatal edge exists, but the 20m gap exceeds the 15m correlation window")
	}
	if _, ok := edges[[2]int{id("machineCheckError"), id("dataReadFailure")}]; !ok {
		t.Error("missing error->fatal edge")
	}
}

func TestGraphDedupsSuccessorPerOccurrence(t *testing.T) {
	g := NewGraph(15 * time.Minute)
	// One source occurrence, the same successor three times: the edge
	// counts once, with the first-occurrence gap.
	g.AddSegment(points(
		0*time.Minute, "ddrSingleSymbolWarning",
		2*time.Minute, "machineCheckError",
		4*time.Minute, "machineCheckError",
		6*time.Minute, "machineCheckError",
	))
	var edge Edge
	for _, e := range g.Edges() {
		if e.From == id("ddrSingleSymbolWarning") && e.To == id("machineCheckError") {
			edge = e
		}
	}
	if edge.Count != 1 {
		t.Fatalf("edge count = %d, want 1 (dedup per source occurrence)", edge.Count)
	}
	if edge.MeanGap() != 2*time.Minute {
		t.Errorf("edge gap = %v, want first-occurrence gap 2m", edge.MeanGap())
	}
}

func TestGraphNoSelfEdges(t *testing.T) {
	g := NewGraph(15 * time.Minute)
	g.AddSegment(points(
		0*time.Minute, "machineCheckError",
		1*time.Minute, "machineCheckError",
		2*time.Minute, "machineCheckError",
	))
	if got := g.EdgeCount(); got != 0 {
		t.Fatalf("EdgeCount = %d, want 0 (no self-edges)", got)
	}
}

func TestSegmentsDoNotSpanGap(t *testing.T) {
	// The correlation appears only across the seam between the two
	// segments: mined per segment there must be no edge, mined over
	// the concatenation there would be one.
	seg1 := stream(0*time.Minute, "ddrSingleSymbolWarning")
	seg2 := stream(5*time.Minute, "dataReadFailure")

	p := New(Config{MinCount: 1, MinProbability: 0.01})
	if err := p.TrainSegments([][]preprocess.Point{preprocess.Points(seg1), preprocess.Points(seg2)}); err != nil {
		t.Fatal(err)
	}
	if got := p.Graph().EdgeCount(); got != 0 {
		t.Fatalf("per-segment mining produced %d edges across the seam, want 0", got)
	}

	leaky := New(Config{MinCount: 1, MinProbability: 0.01})
	if err := leaky.Train(append(append([]preprocess.Event(nil), seg1...), seg2...)); err != nil {
		t.Fatal(err)
	}
	if got := leaky.Graph().EdgeCount(); got == 0 {
		t.Fatal("concatenated mining found no edge; the fixture does not exercise the seam")
	}
}

func TestTrainLearnsMultiHopPath(t *testing.T) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		t.Fatal(err)
	}
	pt, ok := p.Path(id("ddrSingleSymbolWarning"))
	if !ok {
		t.Fatal("no failure path from ddrSingleSymbolWarning")
	}
	if pt.Hops != 2 || pt.Target != id("dataReadFailure") {
		t.Errorf("path = %+v, want 2 hops to dataReadFailure", pt)
	}
	if pt.Probability != 1.0 {
		t.Errorf("path probability = %v, want 1.0", pt.Probability)
	}
	if direct, ok := p.Path(id("machineCheckError")); !ok || direct.Hops != 1 {
		t.Errorf("machineCheckError path = %+v, want direct 1-hop", direct)
	}
}

func TestPredictWarnsAndIsQuietWithoutPrecursors(t *testing.T) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		t.Fatal(err)
	}
	test := stream(
		0*time.Minute, "ddrSingleSymbolWarning",
		10*time.Minute, "machineCheckError",
		20*time.Minute, "dataReadFailure",
	)
	warnings := p.Predict(test, 30*time.Minute)
	if len(warnings) != 1 {
		t.Fatalf("Predict = %d warnings (%v), want 1 renewed standing alarm", len(warnings), warnings)
	}
	w := warnings[0]
	if w.Source != Source {
		t.Errorf("Source = %q, want %q", w.Source, Source)
	}
	fatalAt := t0.Add(20 * time.Minute)
	if !w.Covers(fatalAt) {
		t.Errorf("warning %+v does not cover the fatal at %v", w, fatalAt)
	}

	quiet := stream(
		0*time.Minute, "scrubCycleInfo",
		10*time.Minute, "kernelShutdownInfo",
	)
	if got := p.Predict(quiet, 30*time.Minute); len(got) != 0 {
		t.Errorf("quiet stream produced warnings: %v", got)
	}
}

func TestObserveDedupsAndCountsSpecificity(t *testing.T) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		t.Fatal(err)
	}
	e := ue(t0.Add(3*time.Minute), "machineCheckError")
	recent := []predictor.StepObservation{
		{At: t0, Sub: id("ddrSingleSymbolWarning")},
		{At: t0.Add(1 * time.Minute), Sub: id("ddrSingleSymbolWarning")}, // duplicate
		{At: t0.Add(3 * time.Minute), Sub: id("machineCheckError")},
	}
	c, ok := p.Observe(&e, recent, 30*time.Minute)
	if !ok {
		t.Fatal("Observe returned no candidate")
	}
	if c.Specificity != 2 {
		t.Errorf("Specificity = %d, want 2 (duplicate precursor deduped)", c.Specificity)
	}
	if c.Warning.Confidence <= 0 || c.Warning.Confidence > 1 {
		t.Errorf("Confidence = %v, want in (0, 1]", c.Warning.Confidence)
	}

	fatal := ue(t0.Add(4*time.Minute), "dataReadFailure")
	if _, ok := p.Observe(&fatal, recent, 30*time.Minute); ok {
		t.Error("Observe fired on a fatal event; ecg is a precursor method")
	}
}

func TestStateRoundTripPredictsIdentically(t *testing.T) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		t.Fatal(err)
	}
	data, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.SetState(data); err != nil {
		t.Fatal(err)
	}
	test := chainTraining(3)
	want := p.Predict(test, 30*time.Minute)
	got := restored.Predict(test, 30*time.Minute)
	if len(want) == 0 {
		t.Fatal("fixture produced no warnings")
	}
	if len(got) != len(want) {
		t.Fatalf("restored predicts %d warnings, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("warning %d: restored %+v != original %+v", i, got[i], want[i])
		}
	}
}

func TestStateUntrainedErrors(t *testing.T) {
	if _, err := New(Config{}).State(); err == nil {
		t.Fatal("State on an untrained predictor did not error")
	}
	if err := New(Config{}).SetState([]byte("not gob")); err == nil {
		t.Fatal("SetState on garbage did not error")
	}
}

func TestStateIsByteDeterministic(t *testing.T) {
	train := chainTraining(8)
	a := New(Config{})
	b := New(Config{})
	if err := a.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(train); err != nil {
		t.Fatal(err)
	}
	sa, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("two trainings over the same stream serialized differently (graph emission must be sorted)")
	}
}

// FuzzSetState feeds arbitrary bytes to SetState, seeded with a
// trained model's state. Whatever it accepts must serialize again, the
// restored predictor must accept that serialization as its own, and
// replaying a stream through it must not panic.
func FuzzSetState(f *testing.F) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		f.Fatal(err)
	}
	data, err := p.State()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	test := chainTraining(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(Config{})
		if err := p.SetState(data); err != nil {
			return
		}
		again, err := p.State()
		if err != nil {
			t.Fatalf("restored predictor does not serialize: %v", err)
		}
		if err := New(Config{}).SetState(again); err != nil {
			t.Fatalf("restored predictor's own state refused: %v", err)
		}
		p.Predict(test, 30*time.Minute)
	})
}

// TestSetStateBoundsRelaxation: a restored MaxDepth far past the node
// count neither spins nor changes a path, because a best chain never
// repeats a node.
func TestSetStateBoundsRelaxation(t *testing.T) {
	p := New(Config{})
	if err := p.Train(chainTraining(8)); err != nil {
		t.Fatal(err)
	}
	deep := p.Config
	deep.MaxDepth = 1 << 40
	restored := New(Config{})
	if err := restored.SetState(encodeState(deep, p.graph)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.paths, p.paths) {
		t.Fatalf("paths at MaxDepth 2^40 = %v, at %d = %v", restored.paths, p.Config.MaxDepth, p.paths)
	}
}
