package eval

import (
	"math"
	"sync"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

var t0 = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)

func ue(at time.Time, name string) preprocess.Event {
	sub := catalog.MustByName(name)
	return preprocess.Event{
		Event: raslog.Event{
			Type: raslog.EventTypeRAS, Time: at, JobID: 1,
			EntryData: sub.Phrase, Facility: sub.Facility, Severity: sub.Severity,
		},
		Sub: sub, Count: 1, Locations: 1,
	}
}

func warn(start, end time.Duration) predictor.Warning {
	return predictor.Warning{At: t0.Add(start), Start: t0.Add(start), End: t0.Add(end)}
}

func TestOutcomeMetrics(t *testing.T) {
	o := Outcome{Warnings: 10, TruePositive: 7, FalsePositive: 3, TotalFatal: 20, PredictedFatal: 8}
	if got := o.Precision(); got != 0.7 {
		t.Errorf("Precision = %v", got)
	}
	if got := o.Recall(); got != 0.4 {
		t.Errorf("Recall = %v", got)
	}
	f1 := 2 * 0.7 * 0.4 / (0.7 + 0.4)
	if got := o.F1(); math.Abs(got-f1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, f1)
	}
}

func TestOutcomeZeroDivision(t *testing.T) {
	var o Outcome
	if o.Precision() != 0 || o.Recall() != 0 || o.F1() != 0 {
		t.Error("empty outcome should yield zeros")
	}
}

func TestOutcomeAddAndString(t *testing.T) {
	a := Outcome{Warnings: 1, TruePositive: 1, TotalFatal: 2, PredictedFatal: 1}
	b := Outcome{Warnings: 2, FalsePositive: 2, TotalFatal: 3}
	a.Add(b)
	if a.Warnings != 3 || a.TotalFatal != 5 || a.FalsePositive != 2 {
		t.Fatalf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestMatchTimesSemantics(t *testing.T) {
	fatals := []time.Time{
		t0.Add(10 * time.Minute),
		t0.Add(20 * time.Minute),
		t0.Add(3 * time.Hour),
	}
	warnings := []predictor.Warning{
		warn(5*time.Minute, 25*time.Minute),    // covers fatals 1 and 2 -> TP
		warn(40*time.Minute, 60*time.Minute),   // covers none -> FP
		warn(170*time.Minute, 181*time.Minute), // covers fatal 3 -> TP
	}
	o := MatchTimes(warnings, fatals)
	if o.TruePositive != 2 || o.FalsePositive != 1 {
		t.Fatalf("tp/fp = %d/%d", o.TruePositive, o.FalsePositive)
	}
	if o.PredictedFatal != 3 || o.TotalFatal != 3 {
		t.Fatalf("covered = %d/%d", o.PredictedFatal, o.TotalFatal)
	}
}

func TestMatchTimesBoundaries(t *testing.T) {
	fatals := []time.Time{t0.Add(10 * time.Minute)}
	// Start exclusive: a fatal exactly at Start is NOT covered.
	o := MatchTimes([]predictor.Warning{warn(10*time.Minute, 20*time.Minute)}, fatals)
	if o.TruePositive != 0 || o.PredictedFatal != 0 {
		t.Fatalf("fatal at Start counted: %+v", o)
	}
	// End inclusive.
	o = MatchTimes([]predictor.Warning{warn(5*time.Minute, 10*time.Minute)}, fatals)
	if o.TruePositive != 1 || o.PredictedFatal != 1 {
		t.Fatalf("fatal at End not counted: %+v", o)
	}
}

func TestMatchExtractsFatals(t *testing.T) {
	events := []preprocess.Event{
		ue(t0, "scrubCycleInfo"),
		ue(t0.Add(10*time.Minute), "torusFailure"),
	}
	o := Match([]predictor.Warning{warn(5*time.Minute, 15*time.Minute)}, events)
	if o.TotalFatal != 1 || o.TruePositive != 1 {
		t.Fatalf("outcome = %+v", o)
	}
}

// mockPredictor predicts a warning after every fatal (self-fulfilling
// on cascades) for testing the CV plumbing.
type mockPredictor struct {
	trainedOn int
	window    time.Duration
}

func (m *mockPredictor) Name() string { return "mock" }
func (m *mockPredictor) Train(events []preprocess.Event) error {
	m.trainedOn = len(events)
	return nil
}
func (m *mockPredictor) Predict(events []preprocess.Event, window time.Duration) []predictor.Warning {
	var out []predictor.Warning
	for i := range events {
		if events[i].Sub.IsFatal() {
			out = append(out, predictor.Warning{
				At: events[i].Time, Start: events[i].Time,
				End: events[i].Time.Add(window), Confidence: 0.5,
			})
		}
	}
	return out
}

func cascadeEvents(n int) []preprocess.Event {
	var out []preprocess.Event
	at := t0
	for i := 0; i < n; i++ {
		out = append(out, ue(at, "torusFailure"))
		out = append(out, ue(at.Add(10*time.Minute), "rtsFailure"))
		at = at.Add(4 * time.Hour)
	}
	return out
}

func TestCrossValidateFoldAccounting(t *testing.T) {
	events := cascadeEvents(50) // 100 events
	res, err := CrossValidate(events, 10, func() predictor.Predictor { return &mockPredictor{} }, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 10 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	// Every fatal appears in exactly one fold's test set.
	if res.Pooled.TotalFatal != 100 {
		t.Fatalf("pooled fatals = %d, want 100", res.Pooled.TotalFatal)
	}
	// The mock covers the second member of each in-fold pair; pairs are
	// never split across contiguous 10-event folds.
	if res.Pooled.PredictedFatal != 50 {
		t.Fatalf("pooled predicted = %d, want 50", res.Pooled.PredictedFatal)
	}
	if math.Abs(res.MeanRecall-0.5) > 1e-9 {
		t.Fatalf("mean recall = %v, want 0.5", res.MeanRecall)
	}
	if math.Abs(res.MeanPrecision-0.5) > 1e-9 {
		t.Fatalf("mean precision = %v, want 0.5", res.MeanPrecision)
	}
}

func TestCrossValidateTrainTestSplit(t *testing.T) {
	events := cascadeEvents(20) // 40 events
	var trained []int
	var mu sync.Mutex // folds run concurrently, each calling the factory
	factory := func() predictor.Predictor {
		m := &mockPredictor{}
		mu.Lock()
		trained = append(trained, 0)
		mu.Unlock()
		return m
	}
	res, err := CrossValidate(events, 4, factory, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(trained) != 4 {
		t.Fatalf("factory called %d times, want 4", len(trained))
	}
	_ = res
}

// segmentSpy records how CrossValidate trains it.
type segmentSpy struct {
	mockPredictor
	segments  [][]preprocess.Point
	trainCall bool
}

func (s *segmentSpy) Train(events []preprocess.Event) error {
	s.trainCall = true
	return s.mockPredictor.Train(events)
}

func (s *segmentSpy) TrainSegments(segments [][]preprocess.Point) error {
	s.segments = segments
	return nil
}

// TestCrossValidateExcisesFoldAsSegments is the fold-boundary
// regression test for the CV plumbing: a SegmentedTrainer predictor
// must receive the material before and after the test fold as two
// separate segments — never concatenated — so no training window can
// span the excised fold.
func TestCrossValidateExcisesFoldAsSegments(t *testing.T) {
	events := cascadeEvents(20) // 40 events
	var spies []*segmentSpy
	var mu sync.Mutex
	factory := func() predictor.Predictor {
		s := &segmentSpy{}
		mu.Lock()
		spies = append(spies, s)
		mu.Unlock()
		return s
	}
	if _, err := CrossValidate(events, 4, factory, time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(spies) != 4 {
		t.Fatalf("factory called %d times", len(spies))
	}
	oneSegment, twoSegments := 0, 0
	for _, s := range spies {
		if s.trainCall {
			t.Fatal("CrossValidate used Train on a SegmentedTrainer")
		}
		total := 0
		for _, seg := range s.segments {
			total += len(seg)
			if len(seg) == 0 {
				t.Fatal("empty training segment")
			}
			// Each segment must be contiguous in the original stream:
			// time strictly increases within the cascade stream.
			for i := 1; i < len(seg); i++ {
				if seg[i-1].At >= seg[i].At {
					t.Fatal("segment events out of order")
				}
			}
		}
		if total != 30 {
			t.Fatalf("trained on %d events, want 30", total)
		}
		switch len(s.segments) {
		case 1:
			oneSegment++
		case 2:
			twoSegments++
			// The two segments bracket the excised fold: a 10-event
			// (40-minute-per-pair) hole must separate them.
			gap := time.Duration(s.segments[1][0].At - s.segments[0][len(s.segments[0])-1].At)
			if gap < 4*time.Hour {
				t.Fatalf("segments nearly touch (gap %v); fold not excised", gap)
			}
		default:
			t.Fatalf("%d segments", len(s.segments))
		}
	}
	// First and last folds leave one contiguous piece; middle folds two.
	if oneSegment != 2 || twoSegments != 2 {
		t.Fatalf("segment shapes: %d single, %d double", oneSegment, twoSegments)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	events := cascadeEvents(5)
	if _, err := CrossValidate(events, 1, func() predictor.Predictor { return &mockPredictor{} }, time.Hour); err == nil {
		t.Error("folds=1 accepted")
	}
	if _, err := CrossValidate(events[:3], 10, func() predictor.Predictor { return &mockPredictor{} }, time.Hour); err == nil {
		t.Error("too-few events accepted")
	}
}

func TestFoldBounds(t *testing.T) {
	b := foldBounds(100, 10)
	if len(b) != 11 || b[0] != 0 || b[10] != 100 {
		t.Fatalf("bounds = %v", b)
	}
	total := 0
	for i := 0; i < 10; i++ {
		size := b[i+1] - b[i]
		if size < 9 || size > 11 {
			t.Fatalf("fold %d size %d", i, size)
		}
		total += size
	}
	if total != 100 {
		t.Fatalf("folds cover %d items", total)
	}
	// Uneven splits must still cover everything.
	b = foldBounds(103, 10)
	if b[10] != 103 {
		t.Fatalf("uneven bounds end = %d", b[10])
	}
}

func TestWindowSweep(t *testing.T) {
	events := cascadeEvents(40)
	windows := []time.Duration{5 * time.Minute, time.Hour}
	pts, err := WindowSweep(events, 4, func() predictor.Predictor { return &mockPredictor{} }, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// The cascade gap is 10 minutes: the 5-minute window must recall
	// strictly less than the 1-hour window.
	if pts[0].Result.MeanRecall >= pts[1].Result.MeanRecall {
		t.Fatalf("recall not increasing with window: %v vs %v",
			pts[0].Result.MeanRecall, pts[1].Result.MeanRecall)
	}
	// A failing window must surface its error even with the windows
	// running concurrently.
	if _, err := WindowSweep(events[:3], 10, func() predictor.Predictor { return &mockPredictor{} }, windows); err == nil {
		t.Error("sweep over too-few events succeeded")
	}
}

func TestPaperWindows(t *testing.T) {
	w := PaperWindows()
	if len(w) != 12 || w[0] != 5*time.Minute || w[11] != time.Hour {
		t.Fatalf("PaperWindows = %v", w)
	}
}
