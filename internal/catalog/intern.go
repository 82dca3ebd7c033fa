package catalog

import "bglpred/internal/raslog"

// Interner is a memoizing classifier: it interns the event vocabulary
// by caching the classification verdict per exact ENTRY DATA string.
// CMCS logs are overwhelmingly duplicates — every chip of a partition
// reports the same fault text, and polling agents repeat it — so after
// the first sighting of an entry, classification is one map lookup
// instead of a Classifier pass over the entry (LogMaster makes the same
// observation: correlation mining over cluster logs becomes tractable
// online once events are interned to integer IDs).
//
// The verdict cache keys on ENTRY DATA alone; FACILITY and SEVERITY
// only break ties between subcategories whose keyword signatures both
// match, and records sharing the exact entry text share those
// attributes in CMCS logs. Callers needing the full attribute-aware
// scoring for adversarial inputs should use Classifier directly.
//
// An Interner is not safe for concurrent use; create one per
// goroutine (they share the underlying taxonomy, which is immutable).
type Interner struct {
	clf *Classifier
	// ids maps ENTRY DATA to a subcategory ID, or -1 for entries that
	// matched no signature.
	ids map[string]int32
	// maxEntries bounds the cache; on overflow the cache resets, which
	// costs re-classification, never correctness.
	maxEntries int
	// last and lastID memoize the verdict of the previous record: a storm
	// repeats one ENTRY DATA record after record, and a decoder that
	// interned the string makes the equality check a pointer compare.
	// The memoized entry is always one ids holds, so the memo never
	// answers what the map would not.
	last   string
	lastID int32
	primed bool
}

// DefaultInternerEntries bounds the verdict cache: at ~60 bytes per
// distinct entry this is a few MB, far below the cost of the raw log
// it summarizes.
const DefaultInternerEntries = 1 << 16

// NewInterner builds an interning classifier over the full taxonomy.
// maxEntries <= 0 selects DefaultInternerEntries.
func NewInterner(maxEntries int) *Interner {
	if maxEntries <= 0 {
		maxEntries = DefaultInternerEntries
	}
	return &Interner{
		clf:        NewClassifier(),
		ids:        make(map[string]int32),
		maxEntries: maxEntries,
	}
}

// Classify returns the best-matching subcategory for the record, or
// ok=false if no subcategory's signature matches. Verdicts are
// memoized per ENTRY DATA string.
func (in *Interner) Classify(e *raslog.Event) (*Subcategory, bool) {
	id, ok := in.lastID, in.primed && e.EntryData == in.last
	if !ok {
		id, ok = in.ids[e.EntryData]
	}
	if !ok {
		id = -1
		if sub, matched := in.clf.Classify(e); matched {
			id = int32(sub.ID)
		}
		if len(in.ids) >= in.maxEntries {
			// Reset rather than evict: the working set of a log window is
			// far below the cap, so a reset is rare and the rebuild cheap.
			in.ids = make(map[string]int32, in.maxEntries/4)
		}
		in.ids[e.EntryData] = id
	}
	in.last, in.lastID, in.primed = e.EntryData, id, true
	if id < 0 {
		return nil, false
	}
	return &taxonomy[id], true
}

// Entries reports the current size of the verdict cache.
func (in *Interner) Entries() int { return len(in.ids) }
