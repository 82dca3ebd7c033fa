package lifecycle

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/online"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// Recorder is the retrainer's training set: a sliding window of the
// accepted stream kept as Phase 1's unique events. Shard engines feed
// it their verdicts through Shard, each into a slab of its own; Observe
// fills one with no server behind it through its own Interner and
// Compressor under the preprocess defaults, into slab 0. Events, by
// time then RecID, is preprocess.Run over all records taken, when fed
// in log order by Observe or one shard and nothing was pruned (N
// shards: EXPERIMENTS.md, deviation 9; Observe's arrivals, deviation 7).
// Events older than newest−window (newest over all slabs) are pruned
// and max caps the events of all slabs, oldest out first; a duplicate
// of an event not held is dropped (deviation 6). A Unique below its
// slab's next slot (a restarted engine re-issuing slots) first
// truncates the slab. Taking a record reads no clock and allocates
// nothing for a duplicate. Beside its events each slab keeps their
// column of preprocess.Points, which is all a retrain copies, and the
// running totals the gauges read.
type Recorder struct {
	window   time.Duration
	max      int
	slabs    atomic.Pointer[[]*slab] // never nil; grows copy-on-write
	observed func() *slab            // builds Observe's Phase 1 once
	clf      *catalog.Interner       // slab 0's lock guards clf and comp
	comp     *preprocess.Compressor
}

// slab is one shard's share of the window.
type slab struct {
	r       *Recorder
	mu      sync.Mutex
	events  []preprocess.Event // events[i] opened at slot base+i
	points  []preprocess.Point // points[i] is events[i]'s Point
	base    int
	records int       // the events' Counts summed
	newest  time.Time // latest record time taken
	seen    int64
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
	r := &Recorder{window: window, max: max}
	r.slabs.Store(new([]*slab))
	r.observed = sync.OnceValue(func() *slab {
		r.clf, r.comp = catalog.NewInterner(0), preprocess.NewCompressor(preprocess.Options{})
		r.Shard(0)
		return (*r.slabs.Load())[0]
	})
	return r
}

// Shard returns the hook that feeds shard i's engine's Phase 1 verdicts
// into slab i: wire Shard as serve.Config.OnRecord.
func (r *Recorder) Shard(i int) online.RecordFunc {
	for {
		slabs := r.slabs.Load()
		if i < len(*slabs) {
			return (*slabs)[i].take
		}
		grown := append(slices.Clip(*slabs), &slab{r: r})
		r.slabs.CompareAndSwap(slabs, &grown)
	}
}

// Observe runs one record through the recorder's own Phase 1 into slab
// 0. Its time must be in raslog.TimeInRange, as the decoders give it;
// Observe does not check.
//
//bglvet:hotpath
func (r *Recorder) Observe(ev raslog.Event) {
	sl := r.observed()
	sl.mu.Lock()
	sub, ok := r.clf.Classify(&ev)
	v, slot := preprocess.Unique, -1
	if ok {
		v, slot = r.comp.Step(&ev, sub.ID)
	}
	opened := sl.takeLocked(&ev, sub, v, slot)
	sl.mu.Unlock()
	if opened {
		r.capUnique()
	}
}

// take is a shard engine's online.RecordFunc.
//
//bglvet:hotpath
func (sl *slab) take(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int) {
	sl.mu.Lock()
	opened := sl.takeLocked(ev, sub, v, slot)
	sl.mu.Unlock()
	if opened {
		sl.r.capUnique()
	}
}

// takeLocked takes a verdict, reporting whether it opened an event; sl.mu held.
func (sl *slab) takeLocked(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int) bool {
	sl.seen++
	if ev.Time.After(sl.newest) {
		sl.newest = ev.Time
	}
	if sub == nil {
		return false
	}
	if v != preprocess.Unique {
		if i := slot - sl.base; i >= 0 && i < len(sl.events) {
			sl.events[i].Count++
			sl.records++
			if v == preprocess.SpatialDuplicate {
				sl.events[i].Locations++
			}
		}
		return false
	}
	if keep := slot - sl.base; keep != len(sl.events) {
		if keep < 0 || keep > len(sl.events) { // a restored engine's slots
			keep = 0
		}
		sl.cut(keep, len(sl.events))
		sl.base = slot - keep
	}
	sl.events = append(sl.events, preprocess.Event{Event: *ev, Sub: sub, Count: 1, Locations: 1})
	sl.points = append(sl.points, preprocess.PointOf(&sl.events[len(sl.events)-1]))
	sl.records++
	sl.prune(sl.newest.Add(-sl.r.window))
	return true
}

// cut drops events[lo:hi] and their points, a prefix or a suffix; a
// prefix goes for free until append next grows the slices, copying
// only what is retained.
func (sl *slab) cut(lo, hi int) {
	for i := lo; i < hi; i++ {
		sl.records -= sl.events[i].Count
	}
	clear(sl.events[lo:hi]) // release the dropped events' strings
	if lo > 0 {
		sl.events, sl.points = sl.events[:lo], sl.points[:lo]
		return
	}
	sl.events, sl.points, sl.base = sl.events[hi:], sl.points[hi:], sl.base+hi
}

// prune drops the leading events older than cutoff; sl.mu held.
func (sl *slab) prune(cutoff time.Time) {
	n := 0
	for n < len(sl.events) && sl.events[n].Time.Before(cutoff) {
		n++
	}
	sl.cut(0, n)
}

// capUnique drops the oldest event of all slabs while over max, one slab
// lock at a time: two slabs opening events at once may drop one too many.
func (r *Recorder) capUnique() {
	for {
		var oldest *slab
		var at time.Time
		n := 0
		for _, sl := range *r.slabs.Load() {
			sl.mu.Lock()
			if n += len(sl.events); len(sl.events) > 0 && (oldest == nil || sl.events[0].Time.Before(at)) {
				oldest, at = sl, sl.events[0].Time
			}
			sl.mu.Unlock()
		}
		if n <= r.max {
			return
		}
		oldest.mu.Lock()
		oldest.cut(0, min(1, len(oldest.events)))
		oldest.mu.Unlock()
	}
}

// sweep prunes each slab to the window of the newest record of all,
// calls f on it under its lock, and returns that newest time.
func (r *Recorder) sweep(f func(*slab)) (newest time.Time) {
	slabs := *r.slabs.Load()
	for pass := 0; pass < 2; pass++ {
		cutoff := newest.Add(-r.window)
		for _, sl := range slabs {
			sl.mu.Lock()
			if sl.newest.After(newest) {
				newest = sl.newest
			}
			if pass == 1 {
				sl.prune(cutoff)
				f(sl)
			}
			sl.mu.Unlock()
		}
	}
	return newest
}

// Events returns a copy of the window, ordered by time then RecID.
func (r *Recorder) Events() []preprocess.Event {
	var events []preprocess.Event
	r.sweep(func(sl *slab) { events = append(events, sl.events...) })
	byTime := func(a, b preprocess.Event) int { return comparePoints(preprocess.PointOf(&a), preprocess.PointOf(&b)) }
	if !slices.IsSortedFunc(events, byTime) {
		slices.SortFunc(events, byTime)
	}
	return events
}

// training copies the window's column into the retrainer's buffer
// dst[:0], ordered as Events, with the records it stands for and the
// newest record time. The copy is sorted only when out of order: when
// several slabs hold events, or one took records out of order.
func (r *Recorder) training(dst []preprocess.Point) (points []preprocess.Point, records int, newest time.Time) {
	points = dst[:0]
	newest = r.sweep(func(sl *slab) {
		points = append(points, sl.points...)
		records += sl.records
	})
	for i := 1; i < len(points); i++ {
		if comparePoints(points[i-1], points[i]) > 0 {
			slices.SortFunc(points, comparePoints)
			break
		}
	}
	return points, records, newest
}

// comparePoints orders points by time, then RecID, then subcategory.
func comparePoints(a, b preprocess.Point) int {
	if a.At != b.At {
		return cmp.Compare(a.At, b.At)
	}
	return cmp.Or(cmp.Compare(a.RecID, b.RecID), cmp.Compare(a.Sub, b.Sub))
}

// Snapshot returns the representative raw record of each Events entry.
func (r *Recorder) Snapshot() []raslog.Event {
	events := r.Events()
	out := make([]raslog.Event, len(events))
	for i := range events {
		out[i] = events[i].Event
	}
	return out
}

// Len reports the raw records the retained events stand for.
func (r *Recorder) Len() int { n, _, _ := r.counts(); return n }

// Unique reports the retained unique events.
func (r *Recorder) Unique() int { _, n, _ := r.counts(); return n }

// Seen reports the lifetime count of records taken.
func (r *Recorder) Seen() int64 { _, _, n := r.counts(); return n }

// counts reads each slab's running totals after pruning it.
func (r *Recorder) counts() (records, unique int, seen int64) {
	r.sweep(func(sl *slab) {
		records += sl.records
		unique += len(sl.events)
		seen += sl.seen
	})
	return records, unique, seen
}
