package online

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// trainedMeta fits a meta-learner on a small generated log and returns
// it with a held-out raw tail for streaming.
func trainedMeta(t *testing.T) (*predictor.Meta, []raslog.Event) {
	t.Helper()
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(gen.Events) * 8 / 10
	trainRaw, testRaw := gen.Events[:cut], gen.Events[cut:]
	pre := preprocess.Run(trainRaw, preprocess.Options{})
	m := predictor.NewMeta()
	if err := m.Train(pre.Events); err != nil {
		t.Fatal(err)
	}
	return m, testRaw
}

func TestEngineStreamsAndCompresses(t *testing.T) {
	meta, raw := trainedMeta(t)
	e := New(meta, Config{Window: 30 * time.Minute})
	for i := range raw {
		if _, err := e.Ingest(&raw[i]); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}
	c := e.Counters()
	if c.Ingested != int64(len(raw)) {
		t.Fatalf("ingested %d of %d", c.Ingested, len(raw))
	}
	if c.Unique == 0 || c.Unique > c.Ingested/5 {
		t.Fatalf("unique = %d of %d; online compression looks wrong", c.Unique, c.Ingested)
	}
	if c.Alerts == 0 {
		t.Fatal("no alerts raised over a failure-rich stream")
	}
}

func TestEngineMatchesOfflineCompression(t *testing.T) {
	// Streaming compression must agree with batch Phase 1 on unique
	// counts (both use sliding-window semantics).
	meta, raw := trainedMeta(t)
	batch := preprocess.Run(raw, preprocess.Options{})
	e := New(meta, Config{Window: 30 * time.Minute})
	unique := 0
	for i := range raw {
		ing, err := e.Ingest(&raw[i])
		if err != nil {
			t.Fatal(err)
		}
		if ing.Unique {
			unique++
		}
	}
	got, want := unique, batch.Stats.AfterSpatial
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	// The batch spatial pass can merge across a location's temporal
	// groups in an order the streaming engine sees differently; allow
	// a small divergence.
	if float64(diff) > 0.02*float64(want)+2 {
		t.Fatalf("online unique = %d, batch = %d", got, want)
	}
}

func TestEngineRejectsOutOfOrder(t *testing.T) {
	meta, raw := trainedMeta(t)
	e := New(meta, Config{})
	if _, err := e.Ingest(&raw[10]); err != nil {
		t.Fatal(err)
	}
	early := raw[10]
	early.Time = early.Time.Add(-time.Hour)
	if _, err := e.Ingest(&early); err == nil {
		t.Fatal("out-of-order record accepted")
	}
}

// TestEngineRefusesRepeatedRecords: a record taken at the engine's
// newest time is refused when it comes again — alone, in a batch, in
// any order, after a restore — and only the Duplicate counter moves; a
// record of that time with a RecID not yet taken is taken, below the
// taken ones or above them, and time advancing forgets the set.
func TestEngineRefusesRepeatedRecords(t *testing.T) {
	meta, raw := trainedMeta(t)
	end := 1000 // past the end of a second holding two records or more
	for !raw[end-2].Time.Equal(raw[end-1].Time) || raw[end].Time.Equal(raw[end-1].Time) {
		end++
	}
	prefix := raw[:end]
	var second []raslog.Event // the prefix's records at its newest time, RecIDs descending
	for i := len(prefix) - 1; i >= 0 && prefix[i].Time.Equal(prefix[end-1].Time); i-- {
		second = append(second, prefix[i])
	}
	var recorded int
	cfg := Config{Window: 30 * time.Minute, OnRecord: func(*raslog.Event, *catalog.Subcategory, preprocess.Verdict, int) { recorded++ }}
	e := New(meta, cfg)
	if rej := e.IngestBatch(prefix); rej != 0 {
		t.Fatalf("%d records of the prefix rejected", rej)
	}
	// repost ingests records as a client re-posting them would, and
	// checks that each is refused as a duplicate and nothing else moved.
	repost := func(e *Engine, recs []raslog.Event) {
		t.Helper()
		before, seen := e.State(), recorded
		for i := range recs {
			if _, err := e.Ingest(&recs[i]); err != nil {
				t.Fatalf("record %d again: %v; want a duplicate", recs[i].RecID, err)
			}
		}
		if rej := e.IngestBatch(recs); rej != 0 {
			t.Fatalf("a batch of duplicates had %d records rejected", rej)
		}
		after := e.State()
		after.Counters.Duplicate -= 2 * int64(len(recs))
		if !reflect.DeepEqual(after, before) || recorded != seen {
			t.Fatalf("duplicates moved the engine: %+v, was %+v; %d records recorded, was %d", after.Counters, before.Counters, recorded, seen)
		}
	}
	repost(e, second)

	above, below := second[0], second[0]
	above.RecID = second[0].RecID + 1
	below.RecID = second[len(second)-1].RecID - 1
	for _, ev := range []raslog.Event{above, below} {
		before := recorded
		if _, err := e.Ingest(&ev); err != nil || recorded != before+1 {
			t.Fatalf("record %d, new at the newest time: %v; taken %d times", ev.RecID, err, recorded-before)
		}
	}
	second = append(second, above, below)
	repost(e, second)

	restored := New(meta, cfg)
	if err := restored.Restore(e.State()); err != nil {
		t.Fatal(err)
	}
	repost(restored, second)

	later := below
	later.Time = later.Time.Add(time.Second)
	before := recorded
	if _, err := restored.Ingest(&later); err != nil || recorded != before+1 {
		t.Fatalf("a taken RecID a second later: %v, taken %d times; time advancing must clear the set", err, recorded-before)
	}
}

// TestEngineOnRecordSeesAcceptedVerdicts: OnRecord sees every record
// the engine accepts, with the verdict and slot one Phase 1 over the
// accepted stream reaches; a record refused for time order never
// reaches it, and a restored engine's slots continue its exporter's.
func TestEngineOnRecordSeesAcceptedVerdicts(t *testing.T) {
	meta, raw := trainedMeta(t)
	type verdict struct {
		rec  int64
		sub  int
		v    preprocess.Verdict
		slot int
	}
	var got []verdict
	hook := func(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int) {
		if sub == nil {
			got = append(got, verdict{ev.RecID, -1, 0, 0})
			return
		}
		got = append(got, verdict{ev.RecID, sub.ID, v, slot})
	}
	half := len(raw) / 2
	e := New(meta, Config{OnRecord: hook})
	if rej := e.IngestBatch(raw[:half]); rej != 0 {
		t.Fatalf("%d records rejected", rej)
	}
	late := raw[half-1]
	late.Time = late.Time.Add(-time.Hour)
	if rej := e.IngestBatch([]raslog.Event{late}); rej != 1 {
		t.Fatal("out-of-order record accepted")
	}
	restored := New(meta, Config{OnRecord: hook})
	if err := restored.Restore(e.State()); err != nil {
		t.Fatal(err)
	}
	if rej := restored.IngestBatch(raw[half:]); rej != 0 {
		t.Fatalf("%d records rejected after restore", rej)
	}

	clf, comp := catalog.NewInterner(0), preprocess.NewCompressor(preprocess.Options{})
	var want []verdict
	unique := 0
	for i := range raw {
		sub, ok := clf.Classify(&raw[i])
		if !ok {
			want = append(want, verdict{raw[i].RecID, -1, 0, 0})
			continue
		}
		v, slot := comp.Step(&raw[i], sub.ID)
		if v == preprocess.Unique {
			unique++
		}
		want = append(want, verdict{raw[i].RecID, sub.ID, v, slot})
	}
	if unique == 0 || unique == len(raw) {
		t.Fatalf("%d of %d records unique; the verdicts distinguish nothing", unique, len(raw))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("hook saw %d verdicts, one Phase 1 over the stream reaches %d", len(got), len(want))
	}
}

func TestEngineOnAlertCallback(t *testing.T) {
	meta, raw := trainedMeta(t)
	var got []predictor.Warning
	e := New(meta, Config{
		Window:  30 * time.Minute,
		OnAlert: func(w predictor.Warning) { got = append(got, w) },
	})
	for i := range raw {
		if _, err := e.Ingest(&raw[i]); err != nil {
			t.Fatal(err)
		}
	}
	if int64(len(got)) != e.Counters().Alerts {
		t.Fatalf("callback saw %d alerts, counters say %d", len(got), e.Counters().Alerts)
	}
	if len(got) == 0 {
		t.Fatal("no alerts delivered")
	}
	for _, w := range got {
		if !w.Start.Before(w.End) {
			t.Fatalf("degenerate alert interval: %+v", w)
		}
	}
}

func TestEngineActiveAlert(t *testing.T) {
	meta, raw := trainedMeta(t)
	e := New(meta, Config{Window: 30 * time.Minute})
	var lastAlert predictor.Warning
	seen := false
	for i := range raw {
		ing, err := e.Ingest(&raw[i])
		if err != nil {
			t.Fatal(err)
		}
		if ing.Alert != nil {
			lastAlert = *ing.Alert
			seen = true
		}
	}
	if !seen {
		t.Skip("no alerts in tail (seed-dependent)")
	}
	if w, ok := e.ActiveAlert(lastAlert.End.Add(-time.Second)); !ok || w.End != lastAlert.End {
		// Another alert may have superseded it; at minimum the engine
		// must report SOME standing alarm at that instant.
		if !ok {
			t.Fatalf("no active alert at %v", lastAlert.End)
		}
	}
	if _, ok := e.ActiveAlert(lastAlert.End.Add(48 * time.Hour)); ok {
		t.Fatal("alert standing two days later")
	}
}

func TestEngineBoundedMemory(t *testing.T) {
	meta, raw := trainedMeta(t)
	e := New(meta, Config{})
	for i := range raw {
		if _, err := e.Ingest(&raw[i]); err != nil {
			t.Fatal(err)
		}
	}
	// After GC the dedup maps must hold far fewer keys than the number
	// of unique events processed.
	if n := e.Snapshot().PendingKeys; int64(n) > e.Counters().Unique/2+100 {
		t.Fatalf("dedup state holds %d keys for %d unique events; GC not working",
			n, e.Counters().Unique)
	}
}

func TestEngineUnclassifiedCounted(t *testing.T) {
	meta, _ := trainedMeta(t)
	e := New(meta, Config{})
	junk := raslog.Event{
		Type: "RAS", Time: time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC),
		JobID: 1, EntryData: "nonsense", Facility: "NOPE", Severity: raslog.Info,
	}
	ing, err := e.Ingest(&junk)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Unique || ing.Sub != nil {
		t.Fatalf("junk ingestion = %+v", ing)
	}
	if e.Counters().Unclassified != 1 {
		t.Fatalf("unclassified = %d", e.Counters().Unclassified)
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	// The engine must be safe for concurrent ingesters (run under
	// -race). All records share one timestamp so the log-order check
	// never rejects, whatever the interleaving; OnAlert reenters the
	// engine, which deadlocked when callbacks fired under the state
	// lock.
	meta, raw := trainedMeta(t)
	at := raw[len(raw)-1].Time
	records := make([]raslog.Event, len(raw))
	for i := range raw {
		records[i] = raw[i]
		records[i].Time = at
	}
	var e *Engine
	var alerts int64
	var alertMu sync.Mutex
	e = New(meta, Config{
		Window: 30 * time.Minute,
		OnAlert: func(w predictor.Warning) {
			_ = e.Counters() // reentrant read must not deadlock
			alertMu.Lock()
			alerts++
			alertMu.Unlock()
		},
	})
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(records); i += workers {
				if _, err := e.Ingest(&records[i]); err != nil {
					t.Errorf("Ingest(%d): %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := e.Snapshot()
	if snap.Ingested != int64(len(records)) {
		t.Fatalf("ingested %d of %d", snap.Ingested, len(records))
	}
	if !snap.LastSeen.Equal(at) {
		t.Fatalf("LastSeen = %v, want %v", snap.LastSeen, at)
	}
	alertMu.Lock()
	got := alerts
	alertMu.Unlock()
	if got != snap.Alerts {
		t.Fatalf("callback saw %d alerts, counters say %d", got, snap.Alerts)
	}
}

// TestEngineBatchEmitsLikeIngest: IngestBatch hands OnAlert the same
// alarms, in the same order, as record-by-record Ingest.
func TestEngineBatchEmitsLikeIngest(t *testing.T) {
	meta, raw := trainedMeta(t)
	recorder := func(ws *[]predictor.Warning) Config {
		return Config{Window: 30 * time.Minute, OnAlert: func(w predictor.Warning) { *ws = append(*ws, w) }}
	}
	var single, batched []predictor.Warning
	e := New(meta, recorder(&single))
	for i := range raw {
		if _, err := e.Ingest(&raw[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(single) == 0 || int64(len(single)) != e.Counters().Alerts {
		t.Fatalf("OnAlert saw %d alarms, %d raised", len(single), e.Counters().Alerts)
	}
	New(meta, recorder(&batched)).IngestBatch(raw)
	if !slices.Equal(batched, single) {
		t.Fatalf("IngestBatch emitted %d alarms differently from Ingest's %d", len(batched), len(single))
	}
}

// TestStateBytesAreDeterministic: checkpoint bytes are a function of
// engine state, so two engines fed the same stream must gob-encode
// identically (ledger checkpoint payloads and SHAs depend on it).
func TestStateBytesAreDeterministic(t *testing.T) {
	meta, raw := trainedMeta(t)
	encode := func() []byte {
		e := New(meta, Config{})
		e.IngestBatch(raw[:5000])
		if n := e.Snapshot().PendingKeys; n < 10 {
			t.Fatalf("only %d pending keys; the export order is not exercised", n)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(e.State()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := encode(), encode(); !bytes.Equal(a, b) {
		t.Fatalf("same stream, different checkpoint bytes (%d vs %d)", len(a), len(b))
	}
}

// TestIngestBatchZeroAllocs: a steady-state storm — one non-fatal entry
// reported from chip after chip, each record past its chip's temporal
// window but inside the storm's spatial one — goes through
// IngestBatch's classify and Phase 1 steps without a heap allocation.
func TestIngestBatchZeroAllocs(t *testing.T) {
	meta, raw := trainedMeta(t)
	e := New(meta, Config{Window: 30 * time.Minute, Preprocess: preprocess.Options{
		TemporalThreshold: time.Second, SpatialThreshold: 300 * time.Second,
	}})
	var proto raslog.Event
	for i := range raw {
		if sub, ok := e.clf.Classify(&raw[i]); ok && !sub.IsFatal() {
			proto = raw[i]
			break
		}
	}
	if proto.EntryData == "" {
		t.Fatal("tail has no classifiable non-fatal record")
	}
	chip := func(i int) raslog.Location {
		return raslog.Location{Kind: raslog.KindComputeChip, Rack: 0, Midplane: 0, Card: i / 32, Chip: i % 32}
	}
	first := proto
	first.Location = chip(0) // opens the storm's spatial window
	if _, err := e.Ingest(&first); err != nil {
		t.Fatal(err)
	}
	storm := make([]raslog.Event, 512)
	for i := range storm {
		storm[i] = proto
		storm[i].RecID = proto.RecID + 1 + int64(i) // one second's records, each its own
		storm[i].Location = chip(1 + i)
	}
	run := func() {
		for i := range storm {
			storm[i].Time = storm[i].Time.Add(2 * time.Second)
		}
		if rej := e.IngestBatch(storm); rej != 0 {
			t.Fatalf("%d records rejected", rej)
		}
	}
	run()
	before := e.Counters()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state IngestBatch allocates %.1f allocs per %d-record batch, want 0", avg, len(storm))
	}
	if after := e.Counters(); after.Unique != before.Unique || after.Duplicate != 0 {
		t.Fatalf("the storm opened %d unique events and repeated %d records; it must stay spatial duplicates",
			after.Unique-before.Unique, after.Duplicate)
	}
}

// benchFixture is what BenchmarkIngestBatch replays: the second half of
// a four-rack ANL × 0.25 log, with a model trained on the first.
type benchFixture struct {
	meta *predictor.Meta
	tail []raslog.Event
}

var benchTail = sync.OnceValues(func() (benchFixture, error) {
	var fx benchFixture
	p := bglsim.ANLProfile().Scaled(0.25)
	p.Machine.Racks = 4
	gen, err := bglsim.Generate(p)
	if err != nil {
		return fx, err
	}
	cut := len(gen.Events) / 2
	fx.meta = predictor.NewMeta()
	fx.meta.Rule.Config.RuleGenWindow = 15 * time.Minute
	fx.tail = gen.Events[cut:]
	return fx, fx.meta.Train(preprocess.Run(gen.Events[:cut], preprocess.Options{}).Events)
})

// BenchmarkIngestBatch streams the tail through a fresh engine per pass
// in batches of 4096 records, the served path's batch, and reports the
// engine's cost per record.
func BenchmarkIngestBatch(b *testing.B) {
	fx, err := benchTail()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(fx.meta, Config{Window: 30 * time.Minute})
		for lo := 0; lo < len(fx.tail); lo += 4096 {
			if rej := e.IngestBatch(fx.tail[lo:min(lo+4096, len(fx.tail))]); rej != 0 {
				b.Fatalf("%d records rejected", rej)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fx.tail)), "ns/record")
}
