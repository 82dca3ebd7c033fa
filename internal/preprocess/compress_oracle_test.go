package preprocess

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

// referenceCompress is the two-pass compressShard that Run used before
// the Compressor kernel replaced it, kept verbatim (sequential form,
// minus the deleted same-location knob's branch) as the reference the
// kernel is held to: a temporal pass producing survivors, then a
// spatial pass compacting them.
func referenceCompress(raw []raslog.Event, subs []int32, opts Options) (events []Event, st Stats) {
	st.Input = len(raw)

	// Step 2: temporal compression at a single location. Records with
	// the same JOB ID and LOCATION (and, by default, subcategory)
	// within the threshold coalesce into the earliest record; the
	// window slides on the last merged record.
	type tstate struct {
		idx  int // index into events
		last time.Time
	}
	temporal := make(map[refTKey]tstate)
	for i := range raw {
		sid := subs[i]
		if sid < 0 {
			st.Unclassified++
			continue
		}
		e := &raw[i]
		key := refTKey{job: e.JobID, loc: e.Location, sub: int(sid)}
		if opts.TemporalKeyIgnoresCategory {
			key.sub = -1
		}
		if ts, ok := temporal[key]; ok && e.Time.Sub(ts.last) <= opts.TemporalThreshold {
			events[ts.idx].Count++
			ts.last = e.Time
			temporal[key] = ts
			continue
		}
		sub, _ := catalog.ByID(int(sid))
		events = append(events, Event{Event: *e, Sub: sub, Count: 1, Locations: 1})
		temporal[key] = tstate{idx: len(events) - 1, last: e.Time}
	}
	st.AfterTemporal = len(events)

	// Step 3: spatial compression across locations. Unique events with
	// the same ENTRY DATA and JOB ID within the threshold, reported
	// from different locations, merge into the earliest.
	type sstate struct {
		idx  int
		last time.Time
		loc  raslog.Location
	}
	spatial := make(map[refSKey]sstate)
	kept := events[:0]
	for i := range events {
		ue := &events[i]
		key := refSKey{job: ue.JobID, entry: ue.EntryData}
		if ss, ok := spatial[key]; ok && ue.Time.Sub(ss.last) <= opts.SpatialThreshold && ue.Location != ss.loc {
			target := &kept[ss.idx]
			if target.Location != ue.Location {
				target.Locations++
			}
			target.Count += ue.Count
			ss.last = ue.Time
			spatial[key] = ss
			continue
		}
		kept = append(kept, *ue)
		spatial[key] = sstate{idx: len(kept) - 1, last: ue.Time, loc: ue.Location}
	}
	st.AfterSpatial = len(kept)
	for i := range kept {
		if kept[i].Sub.IsFatal() {
			st.FatalUnique++
		}
	}
	return kept, st
}

// oracleOptions is every key mode × threshold the oracle covers: one
// second (nearly nothing merges), the paper's 300 s, and one hour
// (windows outlive several GC sweeps).
func oracleOptions() []Options {
	var out []Options
	for _, literal := range []bool{false, true} {
		for _, th := range []time.Duration{time.Second, 300 * time.Second, time.Hour} {
			out = append(out, Options{TemporalThreshold: th, SpatialThreshold: th, TemporalKeyIgnoresCategory: literal})
		}
	}
	return out
}

func checkAgainstReference(t *testing.T, raw []raslog.Event, opts Options, workers ...int) {
	t.Helper()
	wantEvents, wantStats := referenceCompress(raw, classifyParallel(raw, 1), opts.withDefaults())
	for _, workers := range workers {
		opts.Workers = workers
		got := Run(raw, opts)
		if got.Stats != wantStats {
			t.Fatalf("%+v: stats %+v, reference %+v", opts, got.Stats, wantStats)
		}
		if len(got.Events) != len(wantEvents) {
			t.Fatalf("%+v: %d events, reference %d", opts, len(got.Events), len(wantEvents))
		}
		for i := range wantEvents {
			if !reflect.DeepEqual(got.Events[i], wantEvents[i]) {
				t.Fatalf("%+v: event %d = %+v, reference %+v", opts, i, got.Events[i], wantEvents[i])
			}
		}
	}
}

// TestCompressorMatchesTwoPass holds Run, on every worker count, to
// the two-pass reference on full Events (order, Count, Locations) and
// Stats over generated logs.
func TestCompressorMatchesTwoPass(t *testing.T) {
	for _, racks := range []int{1, 4} {
		for seed := uint64(1); seed <= 5; seed++ {
			p := bglsim.ANLProfile().Scaled(0.004)
			p.Machine.Racks = racks
			p.Seed = seed
			gen, err := bglsim.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(gen.Events) < 2*shardMinRecords {
				t.Fatalf("only %d records; the sharded path needs %d", len(gen.Events), 2*shardMinRecords)
			}
			t.Run(fmt.Sprintf("racks=%d/seed=%d", racks, seed), func(t *testing.T) {
				for _, opts := range oracleOptions() {
					checkAgainstReference(t, gen.Events, opts, 1, 2, 4, 16)
				}
			})
		}
	}
}

// fuzzRecords decodes fuzz bytes into a time-ordered record sequence,
// three bytes per record: a gap, a (job, location, subcategory) pick,
// and an ENTRY DATA detail. Gaps land on and either side of each
// oracle threshold.
func fuzzRecords(data []byte) []raslog.Event {
	gaps := []time.Duration{
		0, time.Second - 1, time.Second, time.Second + 1, 30 * time.Second,
		299 * time.Second, 300 * time.Second, 301 * time.Second, 11 * time.Minute,
		time.Hour - time.Second, time.Hour, time.Hour + time.Second,
	}
	subs := []string{"torusFailure", "socketReadFailure", "scrubCycleInfo"}
	locs := []raslog.Location{chipA, chipB, chipC}
	var out []raslog.Event
	at := t0
	for i := 0; i+2 < len(data) && len(out) < shardMinRecords+512; i += 3 {
		at = at.Add(gaps[int(data[i])%len(gaps)])
		pick := int(data[i+1])
		detail := ""
		if data[i+2]%4 == 0 {
			detail = " rc=-5"
		}
		out = append(out, rec(int64(len(out)+1), at, subs[pick%3], int64(pick/3%3), locs[pick/9%3], detail))
	}
	return out
}

// FuzzCompressorMatchesTwoPass is the oracle over hand-built
// sequences: same and different locations, jobs and entries, with gaps
// straddling each threshold.
func FuzzCompressorMatchesTwoPass(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 9, 0, 7, 0, 0})                // TestSpatialCompressionSkipsSameLocation's shape
	f.Add([]byte{0, 0, 1, 4, 0, 1, 5, 0, 1, 7, 0, 1})       // temporal window sliding to its edge and past it
	f.Add([]byte{0, 1, 0, 4, 10, 0, 4, 19, 0, 4, 1, 0})     // spatial merge, then a repeat at the absorbed location
	f.Add([]byte{0, 0, 0, 8, 3, 0, 10, 0, 0, 11, 9, 0})     // gaps past a GC sweep
	f.Add([]byte{2, 0, 0, 2, 1, 0, 3, 0, 0, 1, 2, 4, 2, 5}) // one-second threshold edges
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := fuzzRecords(data)
		for _, opts := range oracleOptions() {
			checkAgainstReference(t, raw, opts, 1, 4)
		}
	})
}

// TestCompressorRestoreContinues: a compressor restored mid-stream
// from State answers the rest of the stream exactly as the one that
// never stopped, and ends in the same state.
func TestCompressorRestoreContinues(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.004))
	if err != nil {
		t.Fatal(err)
	}
	raw := gen.Events
	subs := classifyParallel(raw, 1)
	type answer struct {
		v    Verdict
		slot int
	}
	for _, opts := range oracleOptions() {
		for _, cut := range []int{0, len(raw) / 3, len(raw) / 2} {
			whole, first := NewCompressor(opts), NewCompressor(opts)
			step := func(c *Compressor, i int) answer {
				v, slot := c.Step(&raw[i], int(subs[i]))
				return answer{v, slot}
			}
			for i := range raw[:cut] {
				if subs[i] >= 0 && step(whole, i) != step(first, i) {
					t.Fatalf("%+v: twin compressors disagree at record %d", opts, i)
				}
			}
			resumed := NewCompressor(opts)
			resumed.Restore(first.State())
			for i := cut; i < len(raw); i++ {
				if subs[i] < 0 {
					continue
				}
				if want, got := step(whole, i), step(resumed, i); got != want {
					t.Fatalf("%+v cut %d: record %d answered %+v after restore, %+v uninterrupted", opts, cut, i, got, want)
				}
			}
			if !reflect.DeepEqual(resumed.State(), whole.State()) {
				t.Fatalf("%+v cut %d: final states differ", opts, cut)
			}
		}
	}
}
