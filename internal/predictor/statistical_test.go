package predictor

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"bglpred/internal/catalog"
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

// correlatedTraining yields a training stream where network fatals are
// reliably followed by another fatal inside (5m, 1h], and kernel
// fatals never are.
func correlatedTraining(n int) []preprocess.Event {
	var out []preprocess.Event
	at := t0
	for i := 0; i < n; i++ {
		out = append(out, ue(at, "torusFailure"))
		out = append(out, ue(at.Add(10*time.Minute), "socketReadFailure"))
		out = append(out, ue(at.Add(3*time.Hour), "kernelPanicFailure"))
		at = at.Add(6 * time.Hour)
	}
	return out
}

func TestStatisticalLearnsTriggers(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 5
	if err := s.Train(correlatedTraining(40)); err != nil {
		t.Fatal(err)
	}
	trig := s.Triggers()
	if _, ok := trig[catalog.Network]; !ok {
		t.Errorf("Network not learned as trigger: %v", trig)
	}
	if _, ok := trig[catalog.Kernel]; ok {
		t.Errorf("Kernel wrongly learned as trigger: %v", trig)
	}
	// Network fatals are always followed at +10m: probability 1.
	if p := trig[catalog.Network]; p < 0.95 {
		t.Errorf("Network trigger confidence = %v, want ~1", p)
	}
}

func TestStatisticalMinCountGuardsSmallSamples(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 100
	s.Train(correlatedTraining(10))
	if len(s.Triggers()) != 0 {
		t.Errorf("triggers learned from undersized sample: %v", s.Triggers())
	}
}

func TestStatisticalForceTriggers(t *testing.T) {
	s := NewStatistical()
	s.ForceTriggers = []catalog.Main{catalog.Network, catalog.Iostream}
	s.Train(correlatedTraining(5))
	trig := s.Triggers()
	if len(trig) != 2 {
		t.Fatalf("forced triggers = %v", trig)
	}
	for _, m := range []catalog.Main{catalog.Network, catalog.Iostream} {
		if trig[m] <= 0 {
			t.Errorf("forced trigger %v has confidence %v", m, trig[m])
		}
	}
}

func TestStatisticalPredictWarningShape(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 5
	s.Train(correlatedTraining(20))

	test := stream(
		0*time.Minute, "torusFailure", // trigger
		90*time.Minute, "kernelPanicFailure", // not a trigger
		100*time.Minute, "scrubCycleInfo", // not fatal
	)
	w := s.Predict(test, time.Hour)
	if len(w) != 1 {
		t.Fatalf("got %d warnings, want 1: %v", len(w), w)
	}
	if w[0].Source != SourceStatistical {
		t.Errorf("source = %q", w[0].Source)
	}
	if !w[0].Start.Equal(t0.Add(5 * time.Minute)) {
		t.Errorf("Start = %v, want trigger+5m actionability lead", w[0].Start)
	}
	if !w[0].End.Equal(t0.Add(time.Hour)) {
		t.Errorf("End = %v, want trigger+1h", w[0].End)
	}
	if w[0].Confidence <= 0 || w[0].Confidence > 1 {
		t.Errorf("confidence = %v", w[0].Confidence)
	}
}

func TestStatisticalLeadClampedForTinyWindows(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 5
	s.Train(correlatedTraining(20))
	test := stream(0*time.Minute, "torusFailure")
	w := s.Predict(test, 2*time.Minute) // window below the 5m lead
	if len(w) != 1 {
		t.Fatalf("got %d warnings", len(w))
	}
	if !w[0].Start.Before(w[0].End) {
		t.Errorf("degenerate window not clamped: %+v", w[0])
	}
}

func TestStatisticalPredictUntrained(t *testing.T) {
	s := NewStatistical()
	if w := s.Predict(stream(0*time.Minute, "torusFailure"), time.Hour); w != nil {
		t.Fatalf("untrained Predict = %v", w)
	}
}

func TestStatisticalZeroLeadForMeta(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 5
	s.Train(correlatedTraining(20))
	ev := ue(t0, "torusFailure")
	w, ok := s.triggerWithLead(&ev, time.Hour, 0)
	if !ok {
		t.Fatal("trigger refused")
	}
	if !w.Start.Equal(t0) {
		t.Errorf("zero-lead Start = %v, want trigger time", w.Start)
	}
}

func TestStatisticalWarningCovers(t *testing.T) {
	w := Warning{Start: t0, End: t0.Add(time.Hour)}
	if w.Covers(t0) {
		t.Error("Start is exclusive")
	}
	if !w.Covers(t0.Add(time.Hour)) {
		t.Error("End is inclusive")
	}
	if !w.Covers(t0.Add(time.Minute)) {
		t.Error("interior not covered")
	}
	if w.Covers(t0.Add(2 * time.Hour)) {
		t.Error("beyond End covered")
	}
}

func TestStatisticalName(t *testing.T) {
	if NewStatistical().Name() != "statistical" {
		t.Error("bad name")
	}
}

// TestStatisticalStateTables round-trips the tables and refuses every
// truncation of them, and a trailing byte.
func TestStatisticalStateTables(t *testing.T) {
	s := NewStatistical()
	s.MinCount = 5
	if err := s.Train(correlatedTraining(40)); err != nil {
		t.Fatal(err)
	}
	data, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	back := NewStatistical()
	if err := back.SetState(data); err != nil {
		t.Fatal(err)
	}
	if again, _ := back.State(); !bytes.Equal(again, data) {
		t.Fatal("restored statistical state re-encodes to other bytes")
	}
	if !reflect.DeepEqual(back.Triggers(), s.Triggers()) || !reflect.DeepEqual(back.FollowStats(), s.FollowStats()) {
		t.Fatalf("restored %v %+v, trained %v %+v", back.Triggers(), back.FollowStats(), s.Triggers(), s.FollowStats())
	}
	for cut := range data {
		if err := NewStatistical().SetState(data[:cut]); err == nil {
			t.Errorf("state truncated to %d of %d bytes restored", cut, len(data))
		}
	}
	if err := NewStatistical().SetState(append(data[:len(data):len(data)], 0)); err == nil {
		t.Error("state with a trailing byte restored")
	}
}
