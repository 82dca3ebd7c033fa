package catalog

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"bglpred/internal/raslog"
)

// TestInternerMatchesClassifier holds the memoizing classifier — its
// verdict map and the last-entry memo in front of it — to the bare
// keyword Classifier, record by record, on a cache of eight entries
// that resets again and again: runs of one entry (the memo's storm
// case), A/B/A alternation, entries leaving and re-entering the cache
// across a reset, and entries no signature matches. Each entry text
// keeps its facility and severity, the condition under which the
// interner's text-keyed verdict is the classifier's.
func TestInternerMatchesClassifier(t *testing.T) {
	rng := rand.New(rand.NewPCG(161, 162))
	var pool []raslog.Event
	for i := range All() {
		s := &All()[i]
		// Two entry texts per subcategory, so distinct texts share a verdict.
		for _, detail := range []string{"", fmt.Sprintf(" rc=%d", i)} {
			pool = append(pool, eventFor(s, detail))
		}
	}
	for k := 0; k < 6; k++ {
		pool = append(pool, raslog.Event{EntryData: fmt.Sprintf("nothing to see %d", k), Facility: "APP", Severity: raslog.Info})
	}

	var stream []raslog.Event
	add := func(ev raslog.Event, n int) {
		for i := 0; i < n; i++ {
			stream = append(stream, ev)
		}
	}
	for len(stream) < 20000 {
		a, b := pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]
		switch rng.IntN(4) {
		case 0:
			add(a, 1+rng.IntN(50)) // a storm
		case 1:
			for i := 0; i < 1+rng.IntN(10); i++ { // A/B/A
				add(a, 1)
				add(b, 1)
			}
		case 2:
			for i := 0; i < 9+rng.IntN(4); i++ { // distinct entries past the cap: a reset
				add(pool[rng.IntN(len(pool))], 1)
			}
			add(a, 2)
		default:
			add(a, 1)
		}
	}

	in, clf := NewInterner(8), NewClassifier()
	for i := range stream {
		ev := stream[i]
		if i%3 == 0 {
			// Equal bytes behind another pointer: the memo must still hit.
			ev.EntryData = string([]byte(ev.EntryData))
		}
		got, gotOK := in.Classify(&ev)
		want, wantOK := clf.Classify(&ev)
		if gotOK != wantOK || got != want {
			t.Fatalf("record %d (%q): interner %v %v, classifier %v %v", i, ev.EntryData, got, gotOK, want, wantOK)
		}
		if n := in.Entries(); n > 8 {
			t.Fatalf("record %d: cache holds %d entries, cap 8", i, n)
		}
	}
}
