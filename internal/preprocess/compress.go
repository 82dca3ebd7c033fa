package preprocess

import (
	"cmp"
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
// default, subcategory) within the threshold coalesce.
type tkey struct {
	job int64
	loc raslog.Location
	sub int
}

// tstate is a temporal window: the unique event it credits and the
// last record it absorbed, which the window slides on.
type tstate struct {
	slot int
	last time.Time
}

// skey keys spatial compression: same ENTRY DATA and JOB ID within
// the threshold merge.
type skey struct {
	job   int64
	entry string
}

// sstate is a spatial window. loc is its representative's location:
// the paper merges reports "from different locations", so a repeat
// from loc that survived temporal compression opens a new event.
type sstate struct {
	slot int
	last time.Time
	loc  raslog.Location
}

// Compressor is the paper's §3.1 temporal-then-spatial compression:
// one Step per classified record, in time order. Run drives one per
// job shard, online.Engine one per stream. Memory is bounded to the
// keys touched within the larger threshold. Not safe for concurrent use.
type Compressor struct {
	opts Options
	// temporal maps each live temporal key to its window's index in
	// twins, so a record hashes its key once: the lookup finds the
	// window, which then updates in place. The sweep frees indices for
	// reuse.
	temporal map[tkey]int32
	twins    []tstate
	free     []int32
	spatial  map[skey]sstate
	next     int
	lastGC   time.Time

	// hot holds the spatial window of the last key Step looked up, and
	// in a storm — one ENTRY DATA reported from chip after chip — every
	// record's key is that one: a spatial duplicate updates the window
	// here without hashing its key, to find it or to store it. While hot
	// is valid its window is the logical one and spatial[hot.key] may
	// lag behind it (dirty); flushHot writes it back. maybeGC, State and
	// Restore, which read or replace the map whole, flush or drop it.
	hot struct {
		key          skey
		st           sstate
		valid, found bool // found: a window exists for key
		dirty        bool
	}
}

// NewCompressor builds an empty compressor; zero thresholds in opts
// mean DefaultThreshold and Workers is ignored.
func NewCompressor(opts Options) *Compressor {
	return &Compressor{
		opts:     opts.withDefaults(),
		temporal: make(map[tkey]int32),
		spatial:  make(map[skey]sstate),
	}
}

// Step applies the temporal rule, then the spatial rule, to one record
// of subcategory subID. It returns the verdict and the slot — the
// ordinal, in Unique-verdict order, of the unique event the record
// belongs to. A temporal key absorbed spatially is redirected to the
// absorbing event's slot, so its later repeats credit that event.
func (c *Compressor) Step(ev *raslog.Event, subID int) (Verdict, int) {
	c.maybeGC(ev.Time)

	tk := tkey{job: ev.JobID, loc: ev.Location, sub: subID}
	if c.opts.TemporalKeyIgnoresCategory {
		tk.sub = -1
	}
	ti, tfound := c.temporal[tk]
	if tfound {
		if tw := &c.twins[ti]; ev.Time.Sub(tw.last) <= c.opts.TemporalThreshold {
			tw.last = ev.Time
			return TemporalDuplicate, tw.slot
		}
	}

	sk := skey{job: ev.JobID, entry: ev.EntryData}
	h := &c.hot
	if !h.valid || h.key != sk {
		c.flushHot()
		h.st, h.found = c.spatial[sk]
		h.key, h.valid = sk, true
	}
	if h.found && ev.Time.Sub(h.st.last) <= c.opts.SpatialThreshold && ev.Location != h.st.loc {
		h.st.last = ev.Time
		h.dirty = true
		c.setTemporal(tk, ti, tfound, tstate{slot: h.st.slot, last: ev.Time})
		return SpatialDuplicate, h.st.slot
	}

	slot := c.next
	c.next++
	c.setTemporal(tk, ti, tfound, tstate{slot: slot, last: ev.Time})
	h.st, h.found, h.dirty = sstate{slot: slot, last: ev.Time, loc: ev.Location}, true, false
	c.spatial[sk] = h.st
	return Unique, slot
}

// setTemporal makes st tk's temporal window: in place when Step's
// lookup found one (found, at i), else in a free slab slot.
func (c *Compressor) setTemporal(tk tkey, i int32, found bool, st tstate) {
	if !found {
		if n := len(c.free); n > 0 {
			i, c.free = c.free[n-1], c.free[:n-1]
		} else {
			i = int32(len(c.twins))
			c.twins = append(c.twins, tstate{})
		}
		c.temporal[tk] = i
	}
	c.twins[i] = st
}

// flushHot writes the hot spatial window back to the map.
func (c *Compressor) flushHot() {
	if c.hot.dirty {
		c.spatial[c.hot.key] = c.hot.st
		c.hot.dirty = false
	}
}

// maybeGC prunes windows idle for longer than both thresholds. A
// pruned key could no longer match, so pruning never changes a verdict.
func (c *Compressor) maybeGC(now time.Time) {
	const gcEvery = 10 * time.Minute
	if !c.lastGC.IsZero() && now.Sub(c.lastGC) < gcEvery {
		return
	}
	c.lastGC = now
	c.flushHot()
	c.hot.valid = false // the sweep may delete its window
	cutoff := now.Add(-max(c.opts.TemporalThreshold, c.opts.SpatialThreshold))
	for k, i := range c.temporal {
		if c.twins[i].last.Before(cutoff) {
			delete(c.temporal, k)
			//bglvet:ignore determinism which slab slot a window reuses is never observed: verdicts and State read windows by key
			c.free = append(c.free, i)
		}
	}
	for k, st := range c.spatial {
		if st.last.Before(cutoff) {
			delete(c.spatial, k)
		}
	}
}

// Pending is the number of live compression windows, a memory gauge. A
// dirty hot window is already a map key, so the count needs no flush.
func (c *Compressor) Pending() int { return len(c.temporal) + len(c.spatial) }

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
	c.flushHot()
	st := CompressorState{LastGC: c.lastGC, Next: c.next}
	if len(c.temporal) > 0 {
		st.Temporal = make([]TemporalEntry, 0, len(c.temporal))
		for k, i := range c.temporal {
			t := c.twins[i]
			st.Temporal = append(st.Temporal, TemporalEntry{Job: k.job, Loc: k.loc, Sub: k.sub, Last: t.last, Slot: t.slot})
		}
		slices.SortFunc(st.Temporal, func(a, b TemporalEntry) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), compareLocation(a.Loc, b.Loc), cmp.Compare(a.Sub, b.Sub))
		})
	}
	if len(c.spatial) > 0 {
		st.Spatial = make([]SpatialEntry, 0, len(c.spatial))
		for k, s := range c.spatial {
			st.Spatial = append(st.Spatial, SpatialEntry{Job: k.job, Entry: k.entry, Last: s.last, Loc: s.loc, Slot: s.slot})
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
func (c *Compressor) Restore(st CompressorState) {
	c.lastGC, c.next = st.LastGC, st.Next
	c.hot.valid, c.hot.dirty = false, false
	c.temporal = make(map[tkey]int32, len(st.Temporal))
	c.twins, c.free = make([]tstate, len(st.Temporal)), nil
	for i, t := range st.Temporal {
		c.temporal[tkey{job: t.Job, loc: t.Loc, sub: t.Sub}] = int32(i)
		c.twins[i] = tstate{slot: t.Slot, last: t.Last}
	}
	c.spatial = make(map[skey]sstate, len(st.Spatial))
	for _, s := range st.Spatial {
		c.spatial[skey{job: s.Job, entry: s.Entry}] = sstate{slot: s.Slot, last: s.Last, loc: s.Loc}
	}
}
