package lifecycle

import (
	"slices"
	"sync"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// Recorder is the retrainer's training set: a bounded sliding window
// over the ingested stream, held as Phase 1's output rather than its
// input. Observe classifies and compresses each record as it arrives
// (one catalog.Interner, one preprocess.Compressor — the paper's §3.1
// rules, the same kernel preprocess.Run and online.Engine drive), so a
// log at 73:1 redundancy is kept as ~14 k unique events, not ~1 M
// records, and a retrain starts at training. Wire Observe as
// serve.Config.Observer: it runs ahead of shard routing and sees the
// whole stream, and because both compression keys carry the JOB ID,
// one compressor over the whole stream is exactly preprocess.Run.
//
// Contract:
//
//   - Events is the time-ordered window; without pruning it equals
//     preprocess.Run(everything observed).Events — order, Count and
//     Locations included.
//   - Len is the number of raw records the retained events stand for
//     (the sum of their Count); records no subcategory matches are
//     dropped at the door, as Phase 1 drops them. Seen is the lifetime
//     observed count, unclassified included.
//   - The window prunes events whose representative is older than
//     newest−window; max caps the retained unique events, oldest out
//     first. A later duplicate of a pruned event is dropped with it,
//     not promoted to a unique event of its own (EXPERIMENTS.md,
//     deviation summary).
//   - Records are stepped in arrival order. One older than the newest
//     observed (two interleaved ingest connections) may open an event
//     out of place — Events then sorts by time, stably — and may open
//     one a sorted pass would have merged, the newer record having
//     expired the compressor's windows (EXPERIMENTS.md has the
//     measured cost). The window, too, prunes in arrival order.
//
// Observe is cheap (a mutex, three map lookups, no allocation for a
// duplicate) and never blocks on I/O.
type Recorder struct {
	mu     sync.Mutex
	window time.Duration
	max    int
	opts   preprocess.Options // compressionOf form
	clf    *catalog.Interner
	comp   *preprocess.Compressor
	// events holds the retained unique events in the order they opened;
	// events[i] is the compressor's slot base+i.
	events  []preprocess.Event
	base    int
	records int       // sum of events[i].Count
	newest  time.Time // latest record time observed
	seen    int64     // lifetime observed count
}

// Default recorder bounds: six hours of events, capped at 250k unique
// events — at the 73:1 compression of a Blue Gene/L log, some 18 M raw
// records, so in practice the window is what bounds the recorder.
const (
	DefaultRecorderWindow = 6 * time.Hour
	DefaultRecorderMax    = 250_000
)

// NewRecorder builds a recorder keeping at most window of event time
// and max unique events (zero values select the defaults).
func NewRecorder(window time.Duration, max int) *Recorder {
	if window <= 0 {
		window = DefaultRecorderWindow
	}
	if max <= 0 {
		max = DefaultRecorderMax
	}
	opts := compressionOf(preprocess.Options{})
	return &Recorder{
		window: window,
		max:    max,
		opts:   opts,
		clf:    catalog.NewInterner(0),
		comp:   preprocess.NewCompressor(opts),
	}
}

// compressionOf reduces Phase 1 options to what decides a compressor's
// verdicts: defaults applied, Workers (parallelism only) cleared. Two
// option sets compress alike exactly when these forms are equal.
func compressionOf(o preprocess.Options) preprocess.Options {
	o.Workers = 0
	if o.TemporalThreshold == 0 {
		o.TemporalThreshold = preprocess.DefaultThreshold
	}
	if o.SpatialThreshold == 0 {
		o.SpatialThreshold = preprocess.DefaultThreshold
	}
	return o
}

// adopt makes a recorder that has observed nothing compress under
// opts; one already filling keeps its options. NewRetrainer calls it
// with its pipeline's Phase 1 options, and RetrainNow refuses a pair
// left disagreeing.
func (r *Recorder) adopt(opts preprocess.Options) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == 0 {
		r.opts = compressionOf(opts)
		r.comp = preprocess.NewCompressor(r.opts)
	}
}

// compression reports the options the recorder compresses under.
func (r *Recorder) compression() preprocess.Options {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts
}

// Observe runs one accepted record through Phase 1: a unique record
// opens an event, a duplicate is credited to the event it repeats.
//
//bglvet:hotpath
func (r *Recorder) Observe(ev raslog.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if ev.Time.After(r.newest) {
		r.newest = ev.Time
	}
	if sub, ok := r.clf.Classify(&ev); ok {
		switch v, slot := r.comp.Step(&ev, sub.ID); {
		case v == preprocess.Unique:
			r.events = append(r.events, preprocess.Event{Event: ev, Sub: sub, Count: 1, Locations: 1})
			r.records++
		case slot >= r.base: // else the event it repeats was pruned
			e := &r.events[slot-r.base]
			e.Count++
			if v == preprocess.SpatialDuplicate {
				e.Locations++
			}
			r.records++
		}
	}
	r.pruneLocked()
}

// pruneLocked drops the leading events that fell out of the window or
// over the cap; r.mu held. Dropping from the front keeps slot
// arithmetic a subtraction and costs nothing until append next grows
// the slice, which copies only what is retained.
func (r *Recorder) pruneLocked() {
	cutoff := r.newest.Add(-r.window)
	n := max(0, len(r.events)-r.max)
	for n < len(r.events) && r.events[n].Time.Before(cutoff) {
		n++
	}
	if n == 0 {
		return
	}
	for i := range r.events[:n] {
		r.records -= r.events[i].Count
	}
	clear(r.events[:n]) // release the pruned events' strings
	r.events = r.events[n:]
	r.base += n
}

// Events returns the window's unique events, time-ordered, as an
// independent copy ready to train on.
func (r *Recorder) Events() []preprocess.Event {
	events, _, _ := r.training(nil)
	return events
}

// training appends the window to dst[:0] and returns it, time-ordered,
// together with the raw-record count the events stand for and the
// newest record time observed, all from one moment. A retrainer passes
// the buffer it keeps between retrains; the result shares nothing with
// the recorder. The buffer's slots past the window are zeroed, so
// events an earlier, longer window held do not stay reachable.
func (r *Recorder) training(dst []preprocess.Event) (events []preprocess.Event, records int, newest time.Time) {
	r.mu.Lock()
	events, records, newest = append(dst[:0], r.events...), r.records, r.newest
	r.mu.Unlock()
	clear(events[len(events):cap(events)])
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			slices.SortStableFunc(events, func(a, b preprocess.Event) int { return a.Time.Compare(b.Time) })
			break
		}
	}
	return events, records, newest
}

// Snapshot returns the representative raw record of each event in
// Events.
func (r *Recorder) Snapshot() []raslog.Event {
	events := r.Events()
	out := make([]raslog.Event, len(events))
	for i := range events {
		out[i] = events[i].Event
	}
	return out
}

// Len reports the raw records the retained events stand for.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records
}

// Unique reports the retained unique events.
func (r *Recorder) Unique() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Seen reports the lifetime observed record count.
func (r *Recorder) Seen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}
