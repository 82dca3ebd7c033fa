package preprocess

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

// refCompressor is the Compressor before it kept its hot spatial
// window, its windows in slabs and its times as integers: every Step
// hashes each key to look its window up and again to store it, compares
// times with time.Time.Sub, and sweeps by ranging over both maps. Its
// methods are the parent commit's verbatim but for the receiver's type,
// the ref-prefixed window types below, which are the parent's own, so a
// change to the live types cannot change the reference, and State
// exporting its times in UTC.
type refCompressor struct {
	opts     Options
	temporal map[refTKey]refTState
	spatial  map[refSKey]refSState
	next     int
	lastGC   time.Time
}

// refTKey keys temporal compression: same JOB ID and LOCATION (and, by
// default, subcategory) within the threshold coalesce.
type refTKey struct {
	job int64
	loc raslog.Location
	sub int
}

// refTState is a temporal window: the unique event it credits and the
// last record it absorbed, which the window slides on.
type refTState struct {
	slot int
	last time.Time
}

// refSKey keys spatial compression: same ENTRY DATA and JOB ID within
// the threshold merge.
type refSKey struct {
	job   int64
	entry string
}

// refSState is a spatial window. loc is its representative's location:
// the paper merges reports "from different locations", so a repeat
// from loc that survived temporal compression opens a new event.
type refSState struct {
	slot int
	last time.Time
	loc  raslog.Location
}

func newRefCompressor(opts Options) *refCompressor {
	return &refCompressor{
		opts:     opts.withDefaults(),
		temporal: make(map[refTKey]refTState),
		spatial:  make(map[refSKey]refSState),
	}
}

func (c *refCompressor) Step(ev *raslog.Event, subID int) (Verdict, int) {
	c.maybeGC(ev.Time)

	tk := refTKey{job: ev.JobID, loc: ev.Location, sub: subID}
	if c.opts.TemporalKeyIgnoresCategory {
		tk.sub = -1
	}
	if st, ok := c.temporal[tk]; ok && ev.Time.Sub(st.last) <= c.opts.TemporalThreshold {
		st.last = ev.Time
		c.temporal[tk] = st
		return TemporalDuplicate, st.slot
	}

	sk := refSKey{job: ev.JobID, entry: ev.EntryData}
	if st, ok := c.spatial[sk]; ok && ev.Time.Sub(st.last) <= c.opts.SpatialThreshold && ev.Location != st.loc {
		st.last = ev.Time
		c.spatial[sk] = st
		c.temporal[tk] = refTState{slot: st.slot, last: ev.Time}
		return SpatialDuplicate, st.slot
	}

	slot := c.next
	c.next++
	c.temporal[tk] = refTState{slot: slot, last: ev.Time}
	c.spatial[sk] = refSState{slot: slot, last: ev.Time, loc: ev.Location}
	return Unique, slot
}

func (c *refCompressor) maybeGC(now time.Time) {
	const gcEvery = 10 * time.Minute
	if !c.lastGC.IsZero() && now.Sub(c.lastGC) < gcEvery {
		return
	}
	c.lastGC = now
	cutoff := now.Add(-max(c.opts.TemporalThreshold, c.opts.SpatialThreshold))
	for k, st := range c.temporal {
		if st.last.Before(cutoff) {
			delete(c.temporal, k)
		}
	}
	for k, st := range c.spatial {
		if st.last.Before(cutoff) {
			delete(c.spatial, k)
		}
	}
}

func (c *refCompressor) Pending() int { return len(c.temporal) + len(c.spatial) }

func (c *refCompressor) State() CompressorState {
	st := CompressorState{LastGC: c.lastGC.UTC(), Next: c.next}
	if len(c.temporal) > 0 {
		st.Temporal = make([]TemporalEntry, 0, len(c.temporal))
		for k, t := range c.temporal {
			st.Temporal = append(st.Temporal, TemporalEntry{Job: k.job, Loc: k.loc, Sub: k.sub, Last: t.last.UTC(), Slot: t.slot})
		}
		slices.SortFunc(st.Temporal, func(a, b TemporalEntry) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), compareLocation(a.Loc, b.Loc), cmp.Compare(a.Sub, b.Sub))
		})
	}
	if len(c.spatial) > 0 {
		st.Spatial = make([]SpatialEntry, 0, len(c.spatial))
		for k, s := range c.spatial {
			st.Spatial = append(st.Spatial, SpatialEntry{Job: k.job, Entry: k.entry, Last: s.last.UTC(), Loc: s.loc, Slot: s.slot})
		}
		slices.SortFunc(st.Spatial, func(a, b SpatialEntry) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Entry, b.Entry))
		})
	}
	return st
}

func (c *refCompressor) Restore(st CompressorState) {
	c.lastGC, c.next = st.LastGC, st.Next
	c.temporal = make(map[refTKey]refTState, len(st.Temporal))
	for _, t := range st.Temporal {
		c.temporal[refTKey{job: t.Job, loc: t.Loc, sub: t.Sub}] = refTState{slot: t.Slot, last: t.Last}
	}
	c.spatial = make(map[refSKey]refSState, len(st.Spatial))
	for _, s := range st.Spatial {
		c.spatial[refSKey{job: s.Job, entry: s.Entry}] = refSState{slot: s.Slot, last: s.Last, loc: s.Loc}
	}
}

// hotRecord is one record of an adversarial stream with the
// subcategory its Step gets.
type hotRecord struct {
	ev  raslog.Event
	sub int
}

// hotStreams are the streams the hot window must be invisible on.
func hotStreams() map[string][]hotRecord {
	chips := make([]raslog.Location, 16)
	for i := range chips {
		chips[i] = raslog.Location{Kind: raslog.KindComputeChip, Rack: i / 8, Midplane: i / 4 % 2, Card: i % 4, Chip: i}
	}
	const entryA, entryB = "torus receiver x+ input pipe error", "ddr single symbol error corrected"
	at := t0
	var s []hotRecord
	mk := func(gap time.Duration, job int64, loc raslog.Location, entry string, sub int) {
		at = at.Add(gap)
		s = append(s, hotRecord{raslog.Event{RecID: int64(len(s) + 1), Time: at, JobID: job, Location: loc, EntryData: entry}, sub})
	}
	take := func() []hotRecord { out := s; s, at = nil, t0; return out }
	streams := make(map[string][]hotRecord)

	for i := 0; i < 300; i++ { // A/B/A from chip after chip
		entry := entryA
		if i%2 == 1 || i%7 == 3 {
			entry = entryB
		}
		mk(time.Second, 7, chips[i%len(chips)], entry, 1)
	}
	streams["entries alternating A/B/A"] = take()

	for i := 0; i < 300; i++ { // one entry, two jobs
		mk(time.Second, int64(7+i%2+i/100%2), chips[i%len(chips)], entryA, 1)
	}
	streams["one entry under two jobs"] = take()

	// A window's last at t, then repeats exactly SpatialThreshold (and
	// a nanosecond past it) apart, for each threshold the options use.
	for _, th := range []time.Duration{time.Second, 300 * time.Second, time.Hour} {
		for i := 0; i < 8; i++ {
			gap := th
			if i%3 == 2 {
				gap += time.Nanosecond
			}
			mk(gap, 7, chips[i%len(chips)], entryA, 1)
		}
	}
	streams["hot window expiring exactly at SpatialThreshold"] = take()

	// The hot key repeats at its window's own location: with another
	// subcategory (or past the temporal window) it survives temporal
	// compression, and the spatial rule must refuse the same location.
	for i := 0; i < 60; i++ {
		loc := chips[i%3]
		if i%4 == 0 {
			loc = chips[0]
		}
		mk(time.Duration(i%5)*time.Second, 7, loc, entryA, 1+i%2)
	}
	streams["repeat at the same location"] = take()

	// A storm that outlives several GC sweeps while its window is hot.
	for i := 0; i < 400; i++ {
		mk(20*time.Second, 7, chips[i%len(chips)], entryA, 1)
		if i%25 == 0 {
			mk(time.Second, int64(100+i), chips[0], entryB, 2) // keys the sweeps can delete
		}
	}
	streams["maybeGC mid-storm"] = take()

	// Out of log order, as a recorder fed by two connections sees it: a
	// chip repeating the hot entry keeps its temporal window alive while
	// the spatial window ages, a sweep deletes the spatial window on a
	// record the temporal rule absorbs, and a late record from another
	// chip falls inside the deleted window.
	for k := 0; k < 4; k++ {
		for i := 0; i < 5; i++ {
			mk(200*time.Second, 7, chips[0], entryA, 1)
		}
		mk(-700*time.Second, 7, chips[1+k], entryA, 1)
		mk(700*time.Second, 7, chips[0], entryA, 1)
	}
	streams["late record after a sweep"] = take()

	rng := rand.New(rand.NewPCG(171, 172))
	gaps := []time.Duration{0, 0, 0, time.Second, 299 * time.Second, 300 * time.Second, 301 * time.Second, 11 * time.Minute, time.Hour}
	for i := 0; i < 3000; i++ {
		entry := entryA
		if rng.IntN(5) == 0 {
			entry = entryB
		}
		mk(gaps[rng.IntN(len(gaps))], int64(7+rng.IntN(2)), chips[rng.IntN(4)], entry, 1+rng.IntN(2))
	}
	streams["random"] = take()

	// The ends of the range a record's time may take: the epoch, whose
	// Unix nanoseconds are 0, then a jump of 292 years, whose difference
	// still fits in an int64, to a run ending on the range's last
	// nanosecond.
	at = time.Unix(0, 0).UTC()
	for i := 0; i < 20; i++ {
		mk(time.Duration(i%3)*time.Second, 7, chips[i%5], entryA, 1+i%2)
	}
	at = time.Unix(0, math.MaxInt64).UTC().Add(-20 * time.Minute)
	for i := 0; i < 20; i++ {
		mk(time.Minute, 7, chips[i%5], entryA, 1+i%2)
	}
	streams["range ends"] = take()

	// Sub-second stamps, as cfdr's microsecond times give, straddling
	// the one-second threshold by a microsecond and a nanosecond.
	subSecond := []time.Duration{time.Microsecond, 250 * time.Millisecond, time.Second - time.Microsecond,
		time.Second, time.Second + time.Nanosecond, time.Second + time.Microsecond}
	for i := 0; i < 600; i++ {
		mk(subSecond[rng.IntN(len(subSecond))], 7, chips[rng.IntN(3)], entryA, 1+rng.IntN(2))
	}
	streams["sub-second times"] = take()

	// Records earlier than the one before them (EXPERIMENTS.md deviation
	// 7: two connections interleaving one log): windows slide back and
	// forth, and a sweep may run on a late record.
	jumps := []time.Duration{-11 * time.Minute, -301 * time.Second, -time.Second, -time.Nanosecond,
		0, time.Second, 301 * time.Second, 11 * time.Minute, 2 * time.Hour}
	for i := 0; i < 1500; i++ {
		entry := entryA
		if rng.IntN(3) == 0 {
			entry = entryB
		}
		mk(jumps[rng.IntN(len(jumps))], int64(7+rng.IntN(2)), chips[rng.IntN(6)], entry, 1+rng.IntN(2))
	}
	streams["records out of time order"] = take()

	// A window exactly as old as a threshold when a sweep runs: the
	// sweep keeps it, and the record that ran the sweep still falls
	// inside it — spatially at 300 s (another chip), temporally at an
	// hour (the same chip).
	mk(0, 7, chips[0], entryA, 1)
	mk(5*time.Minute, 7, chips[1], entryA, 1)
	mk(5*time.Minute, 7, chips[2], entryA, 1) // sweeps: chips[1]'s record is 300 s old
	mk(time.Hour, 7, chips[2], entryA, 1)     // sweeps: chips[2]'s window is an hour old
	streams["window exactly a threshold old at a sweep"] = take()

	// The newest window moves back behind an older one: a sweep must
	// still find it, past the window it now trails.
	mk(0, 7, chips[0], entryA, 1)
	mk(5*time.Minute, 7, chips[1], entryB, 1)
	mk(10*time.Second, 7, chips[2], entryA, 1)
	mk(-20*time.Minute, 7, chips[2], entryA, 1) // chips[2]'s window, now 20 minutes back
	mk(20*time.Minute+290*time.Second, 7, chips[3], entryB, 2)
	streams["newest window moved back"] = take()

	// Times in another zone: windows keep Unix nanoseconds, and State
	// exports them in UTC.
	zone := time.FixedZone("UTC+1", 3600)
	for i := 0; i < 200; i++ {
		mk(gaps[rng.IntN(len(gaps))], 7, chips[rng.IntN(4)], entryA, 1)
		s[len(s)-1].ev.Time = s[len(s)-1].ev.Time.In(zone)
	}
	streams["times in another zone"] = take()
	return streams
}

// TestCompressorHotWindowMatchesReference: on every stream, every
// option set and every checkpoint cadence, the compressor — hot window,
// slabs, integer times and expiry order — answers each record with the
// reference's verdict and slot,
// agrees on Pending and exports the same State — with State, Pending
// and a Restore into a fresh compressor landing mid-storm. Then both
// rewind to a mid-stream State, the hot one by Restore over its own
// warm windows, and replay the rest.
func TestCompressorHotWindowMatchesReference(t *testing.T) {
	for name, stream := range hotStreams() {
		for _, opts := range oracleOptions() {
			for _, every := range []int{1, 7, 100} {
				t.Run(fmt.Sprintf("%s/%+v/every %d", name, opts, every), func(t *testing.T) {
					ref, hot := newRefCompressor(opts), NewCompressor(opts)
					run := func(from int) {
						for i := from; i < len(stream); i++ {
							r := &stream[i]
							wv, ws := ref.Step(&r.ev, r.sub)
							gv, gs := hot.Step(&r.ev, r.sub)
							if gv != wv || gs != ws {
								t.Fatalf("record %d: verdict %v slot %d, reference %v slot %d", i, gv, gs, wv, ws)
							}
							if i%every != 0 {
								continue
							}
							if got, want := hot.Pending(), ref.Pending(); got != want {
								t.Fatalf("record %d: Pending %d, reference %d", i, got, want)
							}
							st := hot.State()
							if want := ref.State(); !reflect.DeepEqual(st, want) {
								t.Fatalf("record %d: State\n%+v\nreference\n%+v", i, st, want)
							}
							if i > 0 && i%(3*every) == 0 {
								hot = NewCompressor(opts)
								hot.Restore(st)
							}
						}
						if !reflect.DeepEqual(hot.State(), ref.State()) {
							t.Fatal("final states differ")
						}
					}
					run(0)
					mid, half := len(stream)/2, newRefCompressor(opts)
					for i := range stream[:mid] {
						half.Step(&stream[i].ev, stream[i].sub)
					}
					rewind := half.State()
					ref = newRefCompressor(opts)
					ref.Restore(rewind)
					hot.Restore(rewind)
					run(mid)
				})
			}
		}
	}
}

// stormRecords is a storm opening more than 10 000 temporal windows in
// ten seconds — one entry from chip after chip, every tenth record
// another — and then a quiet stretch of a record every four minutes for
// two hours, spanning a dozen sweeps. It returns where the quiet
// stretch starts.
func stormRecords() ([]hotRecord, int) {
	const chips = 10240
	var out []hotRecord
	at := t0
	for i := 0; i < chips; i++ {
		at = at.Add(time.Millisecond)
		entry := "torus receiver x+ input pipe error"
		if i%10 == 9 {
			entry = fmt.Sprintf("ddr single symbol error corrected on chip %d", i%7)
		}
		loc := raslog.Location{Kind: raslog.KindComputeChip, Rack: i / 1024, Midplane: i / 512 % 2, Card: i / 32 % 16, Chip: i % 32}
		out = append(out, hotRecord{raslog.Event{RecID: int64(len(out) + 1), Time: at, JobID: 7, Location: loc, EntryData: entry}, 1 + i%3})
	}
	quiet := len(out)
	for i := 0; i < 30; i++ {
		at = at.Add(4 * time.Minute)
		loc := raslog.Location{Kind: raslog.KindComputeChip, Chip: i % 4}
		out = append(out, hotRecord{raslog.Event{RecID: int64(len(out) + 1), Time: at, JobID: int64(7 + i%2), Location: loc, EntryData: "polling agent heartbeat ok"}, 2})
	}
	return out, quiet
}

// TestCompressorStormMatchesReference: through the storm and the quiet
// stretch after it, the compressor answers each record and counts
// Pending as the reference does; right after the storm its State is
// the reference's and a compressor restored from it carries on, and in
// the quiet stretch State agrees record by record while the sweeps
// delete the storm's windows.
func TestCompressorStormMatchesReference(t *testing.T) {
	stream, quiet := stormRecords()
	for _, opts := range oracleOptions() {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			ref, c := newRefCompressor(opts), NewCompressor(opts)
			for i := range stream {
				if i == quiet {
					st := c.State()
					if want := ref.State(); !reflect.DeepEqual(st, want) {
						t.Fatalf("after the storm: State differs from the reference (%d/%d temporal windows)", len(st.Temporal), len(want.Temporal))
					}
					if len(st.Temporal) <= 10000 {
						t.Fatalf("the storm left %d temporal windows, want more than 10000", len(st.Temporal))
					}
					c = NewCompressor(opts)
					c.Restore(st)
				}
				r := &stream[i]
				wv, ws := ref.Step(&r.ev, r.sub)
				gv, gs := c.Step(&r.ev, r.sub)
				if gv != wv || gs != ws {
					t.Fatalf("record %d: verdict %v slot %d, reference %v slot %d", i, gv, gs, wv, ws)
				}
				if got, want := c.Pending(), ref.Pending(); got != want {
					t.Fatalf("record %d: Pending %d, reference %d", i, got, want)
				}
				if i >= quiet && !reflect.DeepEqual(c.State(), ref.State()) {
					t.Fatalf("record %d: State differs from the reference", i)
				}
			}
			if c.Pending() > 8 {
				t.Fatalf("%d windows live after two quiet hours", c.Pending())
			}
		})
	}
}
