// Package preprocess implements Phase 1 of the three-phase predictor
// (paper §3.1): event categorization, temporal compression at a single
// location, and spatial compression across locations. Its output is
// the list of unique events the base predictors learn from.
//
// The pipeline is built for ANL-scale logs (4.17M raw records):
// categorization memoizes verdicts per ENTRY DATA string through
// catalog.Interner, and compression partitions records by JOB ID into
// shards that compress concurrently. Both compression keys include
// the job, so every key's record subsequence falls wholly inside one
// shard and the sharded run is bit-identical to the sequential one;
// the shard outputs are merged back into raw-record order.
package preprocess

import (
	"runtime"
	"sync"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

// DefaultThreshold is the paper's compression threshold: 300 seconds
// for both temporal and spatial compression. The paper reports that
// larger thresholds no longer improve FAILURE compression and risk
// merging distinct events.
const DefaultThreshold = 300 * time.Second

// Options configures Phase 1. The zero value reproduces the paper.
type Options struct {
	// TemporalThreshold is the single-location coalescing window;
	// 0 means DefaultThreshold.
	TemporalThreshold time.Duration
	// SpatialThreshold is the cross-location coalescing window;
	// 0 means DefaultThreshold.
	SpatialThreshold time.Duration
	// TemporalKeyIgnoresCategory reproduces the paper's literal wording
	// (coalesce on JOB ID and LOCATION only). The default (false)
	// additionally keys on the event subcategory, which prevents a
	// precursor event from being swallowed by an unrelated event at the
	// same location; DESIGN.md §5 lists this as an ablation knob.
	TemporalKeyIgnoresCategory bool
	// Workers bounds the classification goroutines and the compression
	// shards; 0 means GOMAXPROCS, 1 forces the sequential path.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.TemporalThreshold == 0 {
		o.TemporalThreshold = DefaultThreshold
	}
	if o.SpatialThreshold == 0 {
		o.SpatialThreshold = DefaultThreshold
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Event is one unique event surviving compression.
type Event struct {
	// Event is the representative (earliest) raw record.
	raslog.Event
	// Sub is the categorization result.
	Sub *catalog.Subcategory
	// Count is how many raw records compressed into this one.
	Count int
	// Locations is how many distinct locations reported it.
	Locations int
}

// Point is the part of a unique event that training reads: its time
// in Unix nanoseconds (exact for times in raslog.TimeInRange), its
// record ID and its subcategory ID. It holds no pointer, so a column of
// points copies without write barriers and the GC never scans it.
type Point struct {
	At    int64
	RecID int64
	Sub   int32
}

// PointOf projects one unique event onto its Point.
func PointOf(e *Event) Point {
	return Point{At: e.Time.UnixNano(), RecID: e.RecID, Sub: int32(e.Sub.ID)}
}

// Points is the column of events' Points, in their order.
func Points(events []Event) []Point {
	out := make([]Point, len(events))
	for i := range events {
		out[i] = PointOf(&events[i])
	}
	return out
}

// Time is the point's time, in UTC.
func (p *Point) Time() time.Time { return time.Unix(0, p.At).UTC() }

// Subcategory resolves the point's subcategory ID.
func (p *Point) Subcategory() *catalog.Subcategory {
	s, _ := catalog.ByID(int(p.Sub))
	return s
}

// Stats counts records surviving each Phase 1 step.
type Stats struct {
	// Input is the raw record count.
	Input int
	// Unclassified is how many records matched no subcategory and were
	// dropped during categorization.
	Unclassified int
	// AfterTemporal is the unique count after temporal compression.
	AfterTemporal int
	// AfterSpatial is the final unique count.
	AfterSpatial int
	// FatalUnique is the number of unique fatal events in the output.
	FatalUnique int
}

// CompressionRatio returns 1 - output/input, the fraction of raw
// records eliminated.
func (s Stats) CompressionRatio() float64 {
	if s.Input == 0 {
		return 0
	}
	return 1 - float64(s.AfterSpatial)/float64(s.Input)
}

// Result is the Phase 1 output.
type Result struct {
	// Events is the unique-event list, ordered by representative time.
	Events []Event
	// Stats summarizes the run.
	Stats Stats
}

// maxShards bounds compression fan-out: beyond this, merge overhead
// outgrows the per-shard win.
const maxShards = 16

// shardMinRecords gates sharding: short inputs compress sequentially.
const shardMinRecords = 4096

// Run executes Phase 1 over raw records. The input must be sorted by
// time (raslog.SortEvents), every time in raslog.TimeInRange, as the
// decoders give them; Run checks neither and does not modify it.
func Run(raw []raslog.Event, opts Options) *Result {
	opts = opts.withDefaults()
	subs := classifyParallel(raw, opts.Workers)

	shards := min(opts.Workers, maxShards)
	if len(raw) < shardMinRecords {
		shards = 1
	}
	outs := make([]shardOut, shards)
	var wg sync.WaitGroup
	for s := range outs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outs[s] = compressShard(raw, subs, s, shards, opts)
		}(s)
	}
	wg.Wait()

	res := &Result{Stats: Stats{Input: len(raw)}}
	for s := range outs {
		res.Stats.Unclassified += outs[s].unclassified
		res.Stats.AfterTemporal += outs[s].afterTemporal
		res.Stats.AfterSpatial += len(outs[s].events)
	}
	res.Events = mergeShards(outs, res.Stats.AfterSpatial)
	for i := range res.Events {
		if res.Events[i].Sub.IsFatal() {
			res.Stats.FatalUnique++
		}
	}
	return res
}

// shardOut is the compression result of one shard: unique events plus
// the raw index of each representative, in ascending order.
type shardOut struct {
	events        []Event
	rawIdx        []int
	unclassified  int
	afterTemporal int
}

// compressShard feeds one Compressor the records whose JOB ID hashes
// to shard, reading classifications from subs (subcategory ID, -1 for
// unclassified). A unique record opens an Event; a duplicate is
// credited to the Event in the slot Step names.
func compressShard(raw []raslog.Event, subs []int32, shard, shards int, opts Options) shardOut {
	var sh shardOut
	c := NewCompressor(opts)
	for i := range raw {
		if shards > 1 && jobShard(raw[i].JobID, shards) != shard {
			continue
		}
		sid := int(subs[i])
		if sid < 0 {
			sh.unclassified++
			continue
		}
		switch v, slot := c.Step(&raw[i], sid); v {
		case Unique:
			sub, _ := catalog.ByID(sid)
			sh.events = append(sh.events, Event{Event: raw[i], Sub: sub, Count: 1, Locations: 1})
			sh.rawIdx = append(sh.rawIdx, i)
			sh.afterTemporal++
		case SpatialDuplicate:
			sh.events[slot].Count++
			sh.events[slot].Locations++
			sh.afterTemporal++
		case TemporalDuplicate:
			sh.events[slot].Count++
		}
	}
	return sh
}

// mergeShards is a k-way merge by representative raw index: raw is
// time-sorted, so index order is time order with input-order
// tie-breaking — the exact order a sequential pass emits.
func mergeShards(outs []shardOut, total int) []Event {
	if len(outs) == 1 {
		return outs[0].events
	}
	events := make([]Event, 0, total)
	heads := make([]int, len(outs))
	for len(events) < total {
		best, bestIdx := -1, 0
		for s := range outs {
			if heads[s] >= len(outs[s].events) {
				continue
			}
			if idx := outs[s].rawIdx[heads[s]]; best < 0 || idx < bestIdx {
				best, bestIdx = s, idx
			}
		}
		events = append(events, outs[best].events[heads[best]])
		heads[best]++
	}
	return events
}

// jobShard maps a job ID onto a shard. Fibonacci hashing spreads
// sequential job IDs evenly.
func jobShard(job int64, shards int) int {
	h := uint64(job) * 0x9E3779B97F4A7C15
	return int(h % uint64(shards))
}

// classifyParallel maps each record to its subcategory ID (-1 when
// unclassifiable) using a chunked worker pool. Each worker owns an
// interning classifier, so the keyword classifier runs once per
// distinct ENTRY DATA string rather than once per record.
func classifyParallel(raw []raslog.Event, workers int) []int32 {
	subs := make([]int32, len(raw))
	if len(raw) == 0 {
		return subs
	}
	if workers > len(raw) {
		workers = len(raw)
	}
	classify := func(lo, hi int) {
		in := catalog.NewInterner(0)
		for i := lo; i < hi; i++ {
			if s, ok := in.Classify(&raw[i]); ok {
				subs[i] = int32(s.ID)
			} else {
				subs[i] = -1
			}
		}
	}
	if workers <= 1 {
		classify(0, len(raw))
		return subs
	}
	var wg sync.WaitGroup
	chunk := (len(raw) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(raw))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			classify(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return subs
}

// Fatal filters the unique events down to fatal ones.
func Fatal(events []Event) []Event {
	var out []Event
	for i := range events {
		if events[i].Sub.IsFatal() {
			out = append(out, events[i])
		}
	}
	return out
}

// CountByMain tallies unique events per main category, optionally
// restricted to fatal events — the paper's Table 4 when fatalOnly.
func CountByMain(events []Event, fatalOnly bool) map[catalog.Main]int {
	out := make(map[catalog.Main]int)
	for i := range events {
		if fatalOnly && !events[i].Sub.IsFatal() {
			continue
		}
		out[events[i].Sub.Main]++
	}
	return out
}

// CountBySubcategory tallies unique events per subcategory.
func CountBySubcategory(events []Event, fatalOnly bool) map[string]int {
	out := make(map[string]int)
	for i := range events {
		if fatalOnly && !events[i].Sub.IsFatal() {
			continue
		}
		out[events[i].Sub.Name]++
	}
	return out
}
