package predictor

import (
	"reflect"
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// referenceBuildTransactions is BuildTransactions as it was first
// written: per fatal event, a rescan of the window and a sort of what
// it found. It is the oracle the sliding pass must match.
func referenceBuildTransactions(events []preprocess.Event, window time.Duration) []assoc.Transaction {
	var tx []assoc.Transaction
	start := 0
	for i := range events {
		if !events[i].Sub.IsFatal() {
			continue
		}
		for events[start].Time.Before(events[i].Time.Add(-window)) {
			start++
		}
		items := []assoc.Item{events[i].Sub.ID}
		for j := start; j < i; j++ {
			if !events[j].Sub.IsFatal() {
				items = append(items, events[j].Sub.ID)
			}
		}
		tx = append(tx, assoc.NewItemset(items...))
	}
	return tx
}

// fuzzStream decodes bytes into a time-ordered unique-event stream:
// each byte pair is a gap in half-minutes (0 repeats the previous
// timestamp) and a subcategory ID.
func fuzzStream(data []byte) []preprocess.Event {
	var out []preprocess.Event
	at := t0
	for i := 0; i+1 < len(data); i += 2 {
		at = at.Add(time.Duration(data[i]%16) * 30 * time.Second)
		sub, _ := catalog.ByID(int(data[i+1]) % catalog.NumSubcategories)
		out = append(out, preprocess.Event{Event: raslog.Event{Time: at}, Sub: sub, Count: 1, Locations: 1})
	}
	return out
}

// FuzzBuildTransactionsMatchesReference builds event-sets from
// arbitrary streams both ways. The window is a whole number of
// half-minutes (zero included), as are the gaps, so events fall
// exactly on the window's edge as often as inside or outside it.
func FuzzBuildTransactionsMatchesReference(f *testing.F) {
	var fatal, other []byte
	for _, s := range catalog.All() {
		if s.IsFatal() {
			fatal = append(fatal, byte(s.ID))
		} else {
			other = append(other, byte(s.ID))
		}
	}
	pairs := func(gap byte, subs ...byte) []byte {
		var b []byte
		for _, s := range subs {
			b = append(b, gap, s)
		}
		return b
	}
	f.Add(byte(30), []byte{})
	f.Add(byte(30), pairs(0, other[0], other[1], fatal[0], other[0], fatal[1]))     // equal timestamps
	f.Add(byte(2), pairs(1, other[0], other[1], other[2], fatal[0], fatal[1]))      // events exactly at the edge
	f.Add(byte(0), pairs(0, other[3], fatal[2], other[3], fatal[2]))                // a zero window
	f.Add(byte(10), pairs(3, fatal[0], fatal[1], fatal[2], fatal[0]))               // fatal only
	f.Add(byte(10), pairs(1, other[0], other[1], other[2], other[3], other[4]))     // no fatal
	f.Add(byte(4), pairs(5, other[5], fatal[3], other[5], other[6], fatal[3], 200)) // an ID past the taxonomy wraps
	f.Fuzz(func(t *testing.T, window byte, data []byte) {
		w := time.Duration(window%64) * 30 * time.Second
		events := fuzzStream(data)
		got := BuildTransactions(events, w)
		want := referenceBuildTransactions(events, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BuildTransactions(window %v) = %v, reference %v", w, got, want)
		}
	})
}
