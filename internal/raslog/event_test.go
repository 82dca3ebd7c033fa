package raslog

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

func mkEvent(recID int64, t time.Time) Event {
	return Event{
		RecID:     recID,
		Type:      EventTypeRAS,
		Time:      t,
		JobID:     42,
		Location:  Location{Kind: KindComputeChip, Rack: 1, Midplane: 0, Card: 2, Chip: 3},
		EntryData: "torusFailure: uncorrectable torus error",
		Facility:  "KERNEL",
		Severity:  Fatal,
	}
}

var t0 = time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)

// The second before the range a record's time may take, its ends in
// whole seconds, and the second after it.
var (
	beforeRange = time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
	rangeStart  = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)
	rangeEnd    = time.Date(2262, 4, 11, 23, 47, 16, 0, time.UTC)
	afterRange  = time.Date(2262, 4, 11, 23, 47, 17, 0, time.UTC)
)

func TestEventBefore(t *testing.T) {
	a := mkEvent(1, t0)
	b := mkEvent(2, t0)
	c := mkEvent(3, t0.Add(time.Second))
	if !a.Before(&b) {
		t.Error("same-second events must order by RecID")
	}
	if b.Before(&a) {
		t.Error("Before must not be symmetric")
	}
	if !b.Before(&c) || c.Before(&b) {
		t.Error("time order must dominate")
	}
	if a.Before(&a) {
		t.Error("Before must be irreflexive")
	}
}

func TestEventValidate(t *testing.T) {
	good := mkEvent(1, t0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	cases := map[string]func(*Event){
		"empty type":   func(e *Event) { e.Type = "" },
		"zero time":    func(e *Event) { e.Time = time.Time{} },
		"before 1970":  func(e *Event) { e.Time = beforeRange },
		"after 2262":   func(e *Event) { e.Time = afterRange },
		"bad severity": func(e *Event) { e.Severity = 17 },
	}
	for name, mutate := range cases {
		e := mkEvent(1, t0)
		mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
	// The pipe dialect's reserved characters are its writer's to refuse
	// (TestWriterRejectsInvalid), not the record's.
	stray := mkEvent(1, t0)
	stray.EntryData, stray.Facility = "a|b\nc", "d|e"
	if err := stray.Validate(); err != nil {
		t.Fatalf("Validate refused reserved characters: %v", err)
	}
}

func TestSortEventsOnShuffled(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	events := make([]Event, 500)
	for i := range events {
		// Deliberately many duplicate timestamps to exercise the RecID
		// tiebreak.
		events[i] = mkEvent(int64(i), t0.Add(time.Duration(rng.IntN(60))*time.Second))
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	SortEvents(events)
	for i := 1; i < len(events); i++ {
		if events[i].Before(&events[i-1]) {
			t.Fatalf("SortEvents left event %d before event %d", i, i-1)
		}
	}
	// All 500 RecIDs must survive (permutation, not overwrite).
	seen := make(map[int64]bool, len(events))
	for i := range events {
		seen[events[i].RecID] = true
	}
	if len(seen) != 500 {
		t.Fatalf("sort lost records: %d unique of 500", len(seen))
	}
}

func TestSortEventsPresortedIsNoop(t *testing.T) {
	events := make([]Event, 100)
	for i := range events {
		events[i] = mkEvent(int64(i), t0.Add(time.Duration(i)*time.Second))
	}
	SortEvents(events)
	for i := range events {
		if events[i].RecID != int64(i) {
			t.Fatalf("presorted input reordered at %d", i)
		}
	}
}

func TestSortEventsStability(t *testing.T) {
	// Records already ordered by RecID within one second must keep that
	// order.
	events := []Event{mkEvent(5, t0), mkEvent(1, t0), mkEvent(3, t0)}
	SortEvents(events)
	want := []int64{1, 3, 5}
	for i, id := range want {
		if events[i].RecID != id {
			t.Fatalf("got order %v at %d, want %v", events[i].RecID, i, id)
		}
	}
}

func TestEventString(t *testing.T) {
	e := mkEvent(9, t0)
	s := e.String()
	for _, want := range []string{"#9", "FATAL", "KERNEL", "torusFailure", "R01-M0-N02-C03"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
