package preprocess

import (
	"cmp"
	"hash/maphash"
	"slices"
	"time"

	"bglpred/internal/raslog"
)

// Verdict is what Compressor.Step decided about one record.
type Verdict uint8

const (
	// Unique records open a new unique event.
	Unique Verdict = iota
	// TemporalDuplicate records fell inside a live temporal window.
	TemporalDuplicate
	// SpatialDuplicate records survived temporal compression and fell
	// inside a live spatial window opened at another location.
	SpatialDuplicate
)

// tkey keys temporal compression: same JOB ID and LOCATION (and, by
// default, subcategory) within the threshold coalesce. A temporal
// window holds the slot of the unique event it credits.
type tkey struct {
	job int64
	loc raslog.Location
	sub int
}

func (k tkey) hash() uint64 {
	l := &k.loc
	return mix(mix(mix(uint64(k.job), uint64(k.sub)), mix(uint64(l.Kind), uint64(l.Rack))),
		mix(mix(uint64(l.Midplane), uint64(l.Card)), uint64(l.Chip)))
}

// skey keys spatial compression: same ENTRY DATA and JOB ID within
// the threshold merge.
type skey struct {
	job   int64
	entry string
}

func (k skey) hash() uint64 { return mix(maphash.String(strSeed, k.entry), uint64(k.job)) }

// sval is what a spatial window holds: the unique event it credits and
// its representative's location. The paper merges reports "from
// different locations", so a repeat from loc that survived temporal
// compression opens a new event.
type sval struct {
	slot int
	loc  raslog.Location
}

// gcEvery is the log time between two sweeps of expired windows.
const gcEvery = 10 * time.Minute

// neverSwept is a Compressor's lastGC before its first sweep, which
// the first record runs. Record times are never negative.
const neverSwept int64 = -1

// Compressor is the paper's §3.1 temporal-then-spatial compression:
// one Step per classified record, in time order, each at a time
// raslog.TimeInRange admits. Windows compare times as Unix nanoseconds,
// whose differences are exact inside that range. Run drives one per
// job shard, online.Engine one per stream. Memory is bounded to the
// keys touched within the larger threshold. Not safe for concurrent use.
type Compressor struct {
	opts     Options
	temporal windowSet[tkey, int]
	spatial  windowSet[skey, sval]
	next     int
	lastGC   int64 // the last sweep's time, or neverSwept

	// hot is the last spatial key Step looked up, its hash and its
	// window (i, or none), and in a storm — one ENTRY DATA reported from
	// chip after chip — every record's key is that one: a spatial
	// duplicate finds its window here without hashing its key. A sweep
	// or Restore, which may delete or replace the window, drops it.
	hot struct {
		key   skey
		hash  uint64
		i     int32
		valid bool
	}
}

// NewCompressor builds an empty compressor; zero thresholds in opts
// mean DefaultThreshold and Workers is ignored.
func NewCompressor(opts Options) *Compressor {
	return &Compressor{
		opts:     opts.withDefaults(),
		temporal: newWindowSet[tkey, int](),
		spatial:  newWindowSet[skey, sval](),
		lastGC:   neverSwept,
	}
}

// Step applies the temporal rule, then the spatial rule, to one record
// of subcategory subID. It returns the verdict and the slot — the
// ordinal, in Unique-verdict order, of the unique event the record
// belongs to. A temporal key absorbed spatially is redirected to the
// absorbing event's slot, so its later repeats credit that event.
//
//bglvet:hotpath
func (c *Compressor) Step(ev *raslog.Event, subID int) (Verdict, int) {
	now := ev.Time.UnixNano()
	if c.lastGC == neverSwept || now-c.lastGC >= int64(gcEvery) {
		c.sweep(now)
	}

	tk := tkey{job: ev.JobID, loc: ev.Location, sub: subID}
	if c.opts.TemporalKeyIgnoresCategory {
		tk.sub = -1
	}
	th := tk.hash()
	ti := c.temporal.find(tk, th)
	if ti != none {
		if tw := &c.temporal.slab[ti]; now-tw.at <= int64(c.opts.TemporalThreshold) {
			c.temporal.touch(ti, now)
			return TemporalDuplicate, tw.val
		}
	}

	sk := skey{job: ev.JobID, entry: ev.EntryData}
	h := &c.hot
	if !h.valid || h.key != sk {
		h.key, h.hash, h.valid = sk, sk.hash(), true
		h.i = c.spatial.find(sk, h.hash)
	}
	if h.i != none {
		if sw := &c.spatial.slab[h.i]; now-sw.at <= int64(c.opts.SpatialThreshold) && ev.Location != sw.val.loc {
			c.spatial.touch(h.i, now)
			c.temporal.put(tk, th, ti, sw.val.slot, now)
			return SpatialDuplicate, sw.val.slot
		}
	}

	slot := c.next
	c.next++
	c.temporal.put(tk, th, ti, slot, now)
	h.i = c.spatial.put(sk, h.hash, h.i, sval{slot: slot, loc: ev.Location}, now)
	return Unique, slot
}

// sweep prunes windows idle for longer than both thresholds; Step
// runs it once gcEvery of log time has passed since the last. A pruned
// key could no longer match, so pruning never changes a verdict.
func (c *Compressor) sweep(now int64) {
	c.lastGC = now
	c.hot.valid = false // the sweep may delete its window
	cutoff := now - int64(max(c.opts.TemporalThreshold, c.opts.SpatialThreshold))
	c.temporal.expire(cutoff)
	c.spatial.expire(cutoff)
}

// Pending is the number of live compression windows, a memory gauge.
func (c *Compressor) Pending() int { return c.temporal.len() + c.spatial.len() }

// TemporalEntry is one temporal window of a CompressorState.
type TemporalEntry struct {
	Job  int64
	Loc  raslog.Location
	Sub  int
	Last time.Time
	Slot int
}

// SpatialEntry is one spatial window of a CompressorState.
type SpatialEntry struct {
	Job   int64
	Entry string
	Last  time.Time
	Loc   raslog.Location
	Slot  int
}

// CompressorState is a Compressor's mutable state as plain data, for
// checkpoints. Entries are sorted by key, so equal compressors export
// equal bytes.
type CompressorState struct {
	LastGC   time.Time
	Next     int
	Temporal []TemporalEntry
	Spatial  []SpatialEntry
}

// State exports the compressor's state.
func (c *Compressor) State() CompressorState {
	st := CompressorState{Next: c.next}
	if c.lastGC != neverSwept {
		st.LastGC = time.Unix(0, c.lastGC).UTC()
	}
	if t := &c.temporal; t.len() > 0 {
		st.Temporal = make([]TemporalEntry, 0, t.len())
		for i := t.head; i != none; i = t.slab[i].next {
			w := &t.slab[i]
			st.Temporal = append(st.Temporal, TemporalEntry{Job: w.key.job, Loc: w.key.loc, Sub: w.key.sub, Last: time.Unix(0, w.at).UTC(), Slot: w.val})
		}
		slices.SortFunc(st.Temporal, func(a, b TemporalEntry) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), compareLocation(a.Loc, b.Loc), cmp.Compare(a.Sub, b.Sub))
		})
	}
	if s := &c.spatial; s.len() > 0 {
		st.Spatial = make([]SpatialEntry, 0, s.len())
		for i := s.head; i != none; i = s.slab[i].next {
			w := &s.slab[i]
			st.Spatial = append(st.Spatial, SpatialEntry{Job: w.key.job, Entry: w.key.entry, Last: time.Unix(0, w.at).UTC(), Loc: w.val.loc, Slot: w.val.slot})
		}
		slices.SortFunc(st.Spatial, func(a, b SpatialEntry) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Entry, b.Entry))
		})
	}
	return st
}

func compareLocation(a, b raslog.Location) int {
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Rack, b.Rack),
		cmp.Compare(a.Midplane, b.Midplane), cmp.Compare(a.Card, b.Card), cmp.Compare(a.Chip, b.Chip))
}

// Restore replaces the compressor's state with an exported one; the
// stream then continues exactly where the exporting compressor stopped.
// Every time in st must be one raslog.TimeInRange admits, or, for
// LastGC, zero.
func (c *Compressor) Restore(st CompressorState) {
	c.lastGC = neverSwept
	if !st.LastGC.IsZero() {
		c.lastGC = st.LastGC.UnixNano()
	}
	c.next = st.Next
	c.hot.valid = false
	c.temporal.fill(len(st.Temporal), func(j int) (tkey, int, int64) {
		t := &st.Temporal[j]
		return tkey{job: t.Job, loc: t.Loc, sub: t.Sub}, t.Slot, t.Last.UnixNano()
	})
	c.spatial.fill(len(st.Spatial), func(j int) (skey, sval, int64) {
		s := &st.Spatial[j]
		return skey{job: s.Job, entry: s.Entry}, sval{slot: s.Slot, loc: s.Loc}, s.Last.UnixNano()
	})
}
