package lifecycle

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/faultinject"
	"bglpred/internal/model"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// referenceRecorder is the recorder of the commit before the recorder
// compressed as it observed, kept verbatim as the oracle's input side:
// a mutex around the raw records, pruned lazily by window and cap,
// copied and sorted at snapshot time.
type referenceRecorder struct {
	mu     sync.Mutex
	window time.Duration
	max    int
	events []raslog.Event
}

func (r *referenceRecorder) Observe(ev raslog.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
	if len(r.events) > r.max {
		r.pruneLocked()
	}
}

func (r *referenceRecorder) pruneLocked() {
	latest := r.events[0].Time
	for i := range r.events {
		if r.events[i].Time.After(latest) {
			latest = r.events[i].Time
		}
	}
	cutoff := latest.Add(-r.window)
	keep := r.events[:0]
	for _, ev := range r.events {
		if !ev.Time.Before(cutoff) {
			keep = append(keep, ev)
		}
	}
	if len(keep) > r.max {
		copy(keep, keep[len(keep)-r.max:])
		keep = keep[:r.max]
	}
	for i := len(keep); i < len(r.events); i++ {
		r.events[i] = raslog.Event{}
	}
	r.events = keep
}

func (r *referenceRecorder) Snapshot() []raslog.Event {
	r.mu.Lock()
	if len(r.events) > 0 {
		r.pruneLocked()
	}
	out := make([]raslog.Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	raslog.SortEvents(out)
	return out
}

// referenceRetrain is that commit's RetrainNow up to the trained
// model, verbatim: snapshot the raw window, run Phase 1 over it, train.
func referenceRetrain(rec *referenceRecorder, cfg core.Config) (*preprocess.Result, *core.Trained, error) {
	raw := rec.Snapshot()
	pipeline := core.New(cfg)
	pre := pipeline.Preprocess(raw)
	trained, err := pipeline.Train(pre.Events)
	return pre, trained, err
}

// threeBases is the widest pipeline the registry offers, with the rule
// window pinned so a training skips the 12-candidate sweep.
func threeBases(opts preprocess.Options) core.Config {
	return core.Config{
		Preprocess: opts,
		Rule:       predictor.RuleConfig{RuleGenWindow: 15 * time.Minute},
		Predictors: []string{"statistical", "rule", "ecg"},
	}
}

// sameModel reports whether two trainings produced one model: the
// meta-learners (every base's learned tables) are deeply equal, and so
// are the artifacts packaged from them under a fixed provenance,
// per-base sections included.
func sameModel(t *testing.T, a, b *predictor.Meta) bool {
	t.Helper()
	var arts [2]*model.Artifact
	for i, m := range []*predictor.Meta{a, b} {
		art, err := model.FromMeta(m, model.Provenance{Source: "recorder oracle"})
		if err != nil {
			t.Fatal(err)
		}
		if len(art.Sections) != 3 {
			t.Fatalf("artifact carries %d base sections, want statistical, rule and ecg", len(art.Sections))
		}
		arts[i] = art
	}
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(arts[0], arts[1])
}

// TestRecorderMatchesReferenceRetrain is the replacement's oracle: over
// seeds and machine sizes, the recorder's window is preprocess.Run's
// output over the raw window and the model trained from it is the
// reference cycle's model — statistical, rule and ecg sections alike.
// The window runs Phase 1 under the preprocess defaults, and it is
// checked fed both ways: by the standalone Observe ("defaults") and by
// one engine's OnRecord hook, as in a one-shard server ("engine hook").
func TestRecorderMatchesReferenceRetrain(t *testing.T) {
	meta, _, _ := fixture(t)
	cfg := threeBases(preprocess.Options{})
	feeds := []struct {
		name string
		feed func(t *testing.T, rec *Recorder, events []raslog.Event)
	}{
		{"defaults", func(t *testing.T, rec *Recorder, events []raslog.Event) {
			for i := range events {
				rec.Observe(events[i])
			}
		}},
		{"engine hook", func(t *testing.T, rec *Recorder, events []raslog.Event) {
			e := online.New(meta, online.Config{OnRecord: rec.Shard(0)})
			for i := range events {
				if _, err := e.Ingest(&events[i]); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
		}},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, racks := range []int{1, 4} {
			p := bglsim.ANLProfile().Scaled(0.05)
			p.Machine.Racks = racks
			p.Seed = seed
			gen, err := bglsim.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			const year = 365 * 24 * time.Hour
			ref := &referenceRecorder{window: year, max: len(gen.Events) + 1}
			for i := range gen.Events {
				ref.Observe(gen.Events[i])
			}
			pre, want, err := referenceRetrain(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Rule.Rules().Len() == 0 {
				t.Fatalf("seed %d, %d racks: reference cycle mined no rules; the comparison is vacuous", seed, racks)
			}
			for _, f := range feeds {
				t.Run(fmt.Sprintf("seed %d, %d racks, %s", seed, racks, f.name), func(t *testing.T) {
					rec := NewRecorder(year, len(gen.Events)+1)
					f.feed(t, rec, gen.Events)

					events := rec.Events()
					if !reflect.DeepEqual(events, pre.Events) {
						t.Fatalf("recorder holds %d events, preprocess.Run over the raw window yields %d; first difference at %d",
							len(events), len(pre.Events), firstDifference(events, pre.Events))
					}
					if got, want := rec.Len(), pre.Stats.Input-pre.Stats.Unclassified; got != want {
						t.Fatalf("Len() = %d, the window holds %d classified records", got, want)
					}
					if got := rec.Seen(); got != int64(len(gen.Events)) {
						t.Fatalf("Seen() = %d after %d records", got, len(gen.Events))
					}
					got, err := core.New(cfg).Train(events)
					if err != nil {
						t.Fatal(err)
					}
					if !sameModel(t, got.Meta, want.Meta) {
						t.Fatal("model trained from the recorder's events differs from the reference cycle's")
					}
				})
			}
		}
	}
}

func firstDifference(a, b []preprocess.Event) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// uniqueRecord builds a classifiable record no other record of a test
// compresses with: both compression keys carry the job.
func uniqueRecord(i int, at time.Time) raslog.Event {
	sub := catalog.MustByName("torusFailure")
	return raslog.Event{
		RecID:     int64(i),
		Type:      raslog.EventTypeRAS,
		Time:      at,
		JobID:     int64(i),
		Location:  raslog.Location{Kind: raslog.KindComputeChip, Card: 1, Chip: 2},
		EntryData: sub.Phrase + " at 0x01",
		Facility:  sub.Facility,
		Severity:  sub.Severity,
	}
}

// TestRecorderWindowAndCap exercises pruning by event-time window and
// by the hard cap.
func TestRecorderWindowAndCap(t *testing.T) {
	base := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	r := NewRecorder(time.Hour, 100)
	for i := 0; i < 300; i++ {
		r.Observe(uniqueRecord(i, base.Add(time.Duration(i)*time.Minute)))
	}
	snap := r.Snapshot()
	if len(snap) == 0 || len(snap) > 100 {
		t.Fatalf("cap leaked or window emptied: %d records", len(snap))
	}
	// Everything kept must be within the window of the newest record.
	latest := snap[len(snap)-1].Time
	if latest != base.Add(299*time.Minute) {
		t.Fatalf("newest retained record is at %v", latest)
	}
	for _, ev := range snap {
		if latest.Sub(ev.Time) > time.Hour {
			t.Fatalf("record at %v survived a 1h window ending %v", ev.Time, latest)
		}
	}
	// Sorted by time.
	for i := 1; i < len(snap); i++ {
		if snap[i].Time.Before(snap[i-1].Time) {
			t.Fatal("snapshot is not time-sorted")
		}
	}
	if r.Seen() != 300 {
		t.Fatalf("lifetime seen = %d", r.Seen())
	}
	if r.Len() != len(snap) || r.Unique() != len(snap) {
		t.Fatalf("Len() = %d, Unique() = %d over %d uncompressed records", r.Len(), r.Unique(), len(snap))
	}

	// The cap alone: a window that never expires keeps the newest max.
	capped := NewRecorder(1000*time.Hour, 100)
	for i := 0; i < 300; i++ {
		capped.Observe(uniqueRecord(i, base.Add(time.Duration(i)*time.Minute)))
	}
	if snap := capped.Snapshot(); len(snap) != 100 || snap[0].RecID != 200 || snap[99].RecID != 299 {
		t.Fatalf("cap kept %d records", len(snap))
	}

	// Records no subcategory matches are counted and dropped.
	r.Observe(raslog.Event{RecID: 300, Time: base.Add(300 * time.Minute)})
	if r.Seen() != 301 || r.Len() != len(snap)-1 {
		t.Fatalf("after an unclassifiable record a minute on: Seen() = %d, Len() = %d", r.Seen(), r.Len())
	}
}

// TestDeviationWindowEdgeDuplicateOfPrunedEventIsDropped pins the named
// deviation at the window's trailing edge. The recorder's window is
// Phase 1 over everything observed, cut to the representatives inside
// the window — exactly. It is not Phase 1 over the raw records inside
// the window, which is what the raw-buffer recorder trained on: there
// the first in-window duplicate of an event whose representative fell
// outside is promoted to a unique event, here it is dropped with the
// event. The cut has to land inside a burst for the two to differ; the
// difference is measured on the package fixture (ANLProfile at scale
// 0.05, 554 h) for a cut that does and one that does not.
func TestDeviationWindowEdgeDuplicateOfPrunedEventIsDropped(t *testing.T) {
	fixture(t)
	all := fixtureOnce.all
	cfg := threeBases(preprocess.Options{})
	whole := preprocess.Run(all, preprocess.Options{}).Events
	for _, pin := range []struct {
		window            time.Duration
		promoted, records int // raw-window cycle minus recorder
		rules             int // both cycles
	}{
		{window: 72 * time.Hour, promoted: 1, records: 10, rules: 0},
		{window: 300 * time.Hour, promoted: 0, records: 0, rules: 3},
	} {
		ref := &referenceRecorder{window: pin.window, max: len(all) + 1}
		rec := NewRecorder(pin.window, len(all)+1)
		for i := range all {
			ref.Observe(all[i])
			rec.Observe(all[i])
		}
		cutoff := all[len(all)-1].Time.Add(-pin.window)
		var want []preprocess.Event
		for _, ev := range whole {
			if !ev.Time.Before(cutoff) {
				want = append(want, ev)
			}
		}
		events := rec.Events()
		if len(want) == 0 || len(want) == len(whole) {
			t.Fatalf("window %v keeps %d of %d events; the fixture does not straddle it", pin.window, len(want), len(whole))
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("window %v: recorder holds %d events, Phase 1 over the whole log cut to the window holds %d; first difference at %d",
				pin.window, len(events), len(want), firstDifference(events, want))
		}

		pre, refTrained, err := referenceRetrain(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trained, err := core.New(cfg).Train(events)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(pre.Events) - len(events); got != pin.promoted {
			t.Errorf("window %v: Phase 1 over the raw window yields %d events, the recorder %d: %d promoted edge duplicates, pinned at %d",
				pin.window, len(pre.Events), len(events), got, pin.promoted)
		}
		if got := pre.Stats.Input - pre.Stats.Unclassified - rec.Len(); got != pin.records {
			t.Errorf("window %v: the recorder's events stand for %d records fewer than the raw window holds, pinned at %d",
				pin.window, got, pin.records)
		}
		if got, ref := trained.Rule.Rules().Len(), refTrained.Rule.Rules().Len(); got != pin.rules || ref != pin.rules {
			t.Errorf("window %v: rules mined: recorder window %d, raw window %d, pinned at %d for both", pin.window, got, ref, pin.rules)
		}
	}
}

// interleave reorders each block of per records as two connections
// racing would deliver it: the block's halves, alternating.
func interleave(events []raslog.Event, per int) []raslog.Event {
	out := make([]raslog.Event, 0, len(events))
	for lo := 0; lo < len(events); lo += per {
		block := events[lo:min(lo+per, len(events))]
		a, b := block[:len(block)/2], block[len(block)/2:]
		for i := range b {
			if i < len(a) {
				out = append(out, a[i])
			}
			out = append(out, b[i])
		}
	}
	return out
}

// TestRecorderOutOfOrderArrivals pins the second named deviation: the
// raw buffer was sorted before Phase 1 ran, the recorder steps records
// as they arrive. On a stream perturbed within one ingest batch — two
// connections delivering the halves of each batch record by record —
// the window stays time-sorted and accounts for every record, but the
// unique count is inflated: each jump forward lets the compressor
// expire windows the next, older record would have matched. (The shard
// engines refuse such records outright; they require log order.)
func TestRecorderOutOfOrderArrivals(t *testing.T) {
	fixture(t)
	all := fixtureOnce.all
	batch := preprocess.Run(all, preprocess.Options{})
	for _, pin := range []struct {
		per   int // records per batch
		extra int // unique events more than batch over the sorted stream
	}{
		{per: 256, extra: 1429}, // bench's paced body
		{per: 4096, extra: 992}, // bench's flood body
	} {
		arrivals := interleave(all, pin.per)
		if slices.IsSortedFunc(arrivals, func(a, b raslog.Event) int { return a.Time.Compare(b.Time) }) {
			t.Fatal("interleaving left the stream in time order")
		}
		rec := NewRecorder(365*24*time.Hour, len(all)+1)
		for i := range arrivals {
			rec.Observe(arrivals[i])
		}
		events := rec.Events()
		if !slices.IsSortedFunc(events, func(a, b preprocess.Event) int { return a.Time.Compare(b.Time) }) {
			t.Fatalf("batches of %d: Events() is not time-sorted", pin.per)
		}
		records := 0
		for i := range events {
			records += events[i].Count
		}
		if want := batch.Stats.Input - batch.Stats.Unclassified; rec.Len() != want || records != want {
			t.Fatalf("batches of %d: Len() = %d, events stand for %d records, the stream holds %d classified records",
				pin.per, rec.Len(), records, want)
		}
		if got := len(events) - len(batch.Events); got != pin.extra {
			t.Errorf("batches of %d: out-of-order arrival yields %d events, batch over the sorted stream %d: %d extra, pinned at %d",
				pin.per, len(events), len(batch.Events), got, pin.extra)
		}
	}
}

// TestRetrainerRefusesNonDefaultPhase1: the window is compressed under
// the preprocess defaults, in the shard engines or in Observe, so a
// retrain refuses a pipeline asking for other Phase 1 options and leaves
// the serving model alone; options that differ only in parallelism or
// in spelling the defaults out are accepted.
func TestRetrainerRefusesNonDefaultPhase1(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2})
	defer s.Close()
	rec := NewRecorder(365*24*time.Hour, 0)
	for i := range tail {
		rec.Observe(tail[i])
	}
	before := s.Model()
	for _, opts := range []preprocess.Options{
		{TemporalKeyIgnoresCategory: true},
		{TemporalThreshold: time.Minute},
		{SpatialThreshold: 15 * time.Minute, Workers: 2},
	} {
		_, err := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Pipeline: threeBases(opts)}).RetrainNow()
		if err == nil {
			t.Fatalf("retrain under %+v succeeded over a window compressed under the defaults", opts)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%+v", opts)) {
			t.Errorf("error %q does not name the options %+v", err, opts)
		}
		if got := s.Model(); !reflect.DeepEqual(got, before) {
			t.Fatalf("refused retrain moved the model: %+v -> %+v", before, got)
		}
	}
	same := threeBases(preprocess.Options{TemporalThreshold: preprocess.DefaultThreshold, Workers: 7})
	if _, err := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Pipeline: same}).RetrainNow(); err != nil {
		t.Fatalf("retrain under equivalent options: %v", err)
	}
}

// TestRecorderConcurrentObserveAndRetrain is meant for -race: four
// goroutines observe disjoint time-ordered slices — so records arrive
// far out of order and the window prunes under the observers' feet —
// while a fifth reads the window and retrains.
func TestRecorderConcurrentObserveAndRetrain(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2})
	defer s.Close()
	rec := NewRecorder(2*time.Hour, 500)
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Pipeline: threeBases(preprocess.Options{})})

	const observers = 4
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		part := tail[g*len(tail)/observers : (g+1)*len(tail)/observers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range part {
				rec.Observe(part[i])
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for observing := true; observing; {
		select {
		case <-done:
			observing = false
		default:
		}
		events := rec.Events()
		if len(events) > 500 {
			t.Fatalf("cap leaked: %d events", len(events))
		}
		// A retrain may find too little in the window; it must not panic.
		_, _ = rt.RetrainNow()
		if n, seen := rec.Len(), rec.Seen(); int64(n) > seen {
			t.Fatalf("Len() = %d exceeds Seen() = %d", n, seen)
		}
	}
	if got := rec.Seen(); got != int64(len(tail)) {
		t.Fatalf("Seen() = %d after %d records", got, len(tail))
	}
}

// TestRecorderObserveDuplicateAllocatesNothing: a record that repeats a
// retained event — nearly every record of a Blue Gene/L log — is
// credited without allocating, through Observe and through the shard
// engines' hook alike.
func TestRecorderObserveDuplicateAllocatesNothing(t *testing.T) {
	base := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	r := NewRecorder(0, 0)
	first := uniqueRecord(1, base)
	r.Observe(first)
	temporal := first
	temporal.Time = base.Add(time.Second)
	spatial := first
	spatial.Location.Chip++
	spatial.Time = base.Add(2 * time.Second)
	r.Observe(spatial)
	if allocs := testing.AllocsPerRun(1000, func() { r.Observe(temporal); r.Observe(spatial) }); allocs != 0 {
		t.Fatalf("observing a duplicate allocates %.1f times", allocs)
	}
	if r.Unique() != 1 || r.Len() != int(r.Seen()) {
		t.Fatalf("duplicates opened events or went uncounted: Unique() = %d, Len() = %d, Seen() = %d", r.Unique(), r.Len(), r.Seen())
	}

	served := NewRecorder(0, 0)
	take, sub := served.Shard(0), catalog.MustByName("torusFailure")
	take(&first, sub, preprocess.Unique, 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		take(&temporal, sub, preprocess.TemporalDuplicate, 0)
		take(&spatial, sub, preprocess.SpatialDuplicate, 0)
	}); allocs != 0 {
		t.Fatalf("taking a duplicate from an engine allocates %.1f times", allocs)
	}
	if served.Unique() != 1 || served.Len() != int(served.Seen()) {
		t.Fatalf("duplicates opened events or went uncounted: Unique() = %d, Len() = %d, Seen() = %d", served.Unique(), served.Len(), served.Seen())
	}
}

// BenchmarkServeIngestObserved posts the fixture's tail as 4096-record
// wire bodies into a fresh two-shard server per pass, once with the
// recorder fed by the engines' hook, the way bglserved runs, and once
// without. The difference is what keeping the window costs a served
// record.
func BenchmarkServeIngestObserved(b *testing.B) {
	meta, _, tail := fixture(b)
	var bodies [][]byte
	for lo := 0; lo < len(tail); lo += 4096 {
		var buf bytes.Buffer
		w := raslog.NewWireWriter(&buf)
		for i := lo; i < min(lo+4096, len(tail)); i++ {
			if err := w.Write(&tail[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	for _, observed := range []bool{true, false} {
		b.Run(fmt.Sprintf("observer=%t", observed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := serve.Config{Shards: 2}
				if observed {
					cfg.OnRecord = NewRecorder(6*time.Hour, 0).Shard
				}
				s := serve.New(meta, cfg)
				for _, body := range bodies {
					req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
					req.Header.Set("Content-Type", raslog.WireContentType)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
					}
				}
				s.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tail)), "ns/record")
		})
	}
}

// baseStates is each base's State section.
func baseStates(t *testing.T, m *predictor.Meta) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, b := range m.Bases() {
		data, err := b.State()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		out[b.Name()] = data
	}
	return out
}

// TestRetrainBufferDoesNotAlias: a retrain copies the recorder's column
// into a buffer the retrainer keeps and the next retrain overwrites, so
// a trained model must hold nothing of it, and Events must still hand
// out a copy of its own.
func TestRetrainBufferDoesNotAlias(t *testing.T) {
	meta, _, _ := fixture(t)
	all := fixtureOnce.all
	s := serve.New(meta, serve.Config{Shards: 1})
	defer s.Close()
	// A cap the first 60 % of the log already fills gives both retrains
	// windows of one length, so the second reuses the buffer.
	const unique = 1500
	rec := NewRecorder(365*24*time.Hour, unique)
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Pipeline: threeBases(preprocess.Options{})})
	first60, first80 := len(all)*6/10, len(all)*8/10
	for i := range all[:first60] {
		rec.Observe(all[i])
	}

	rt.mu.Lock()
	first, _, err := rt.train(rt.stopwatch(time.Now()))
	buf := rt.window
	rt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != unique {
		t.Fatalf("first window holds %d events, want the cap %d", len(buf), unique)
	}
	replay := preprocess.Run(all, preprocess.Options{}).Events
	states := baseStates(t, first)
	warnings := first.Predict(replay, 30*time.Minute)
	if len(warnings) == 0 || serve.RuleCount(first) == 0 {
		t.Fatal("the first model mined no rules or warns of nothing over the replay; the comparison is vacuous")
	}
	oldest := buf[0]

	for i := range all[first60:first80] {
		rec.Observe(all[first60+i])
	}
	if _, err := rt.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if &rt.window[0] != &buf[0] {
		t.Fatal("the second retrain copied its window into a new slice; the buffer was never overwritten")
	}
	if reflect.DeepEqual(buf[0], oldest) {
		t.Fatal("the second window starts where the first did; the buffer was never overwritten")
	}
	if got := baseStates(t, first); !reflect.DeepEqual(got, states) {
		t.Fatal("overwriting the kept window changed the first model's sections")
	}
	if got := first.Predict(replay, 30*time.Minute); !reflect.DeepEqual(got, warnings) {
		t.Fatalf("overwriting the kept window changed the first model's warnings: %d, was %d", len(got), len(warnings))
	}

	events := rec.Events()
	want := slices.Clone(events)
	for i := range all[first80:] {
		rec.Observe(all[first80+i])
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatal("observing more records changed a slice Events returned earlier")
	}
	if reflect.DeepEqual(rec.Events(), want) {
		t.Fatal("the window did not move; the copy check is vacuous")
	}
}

// ingest posts body to s and returns the reply; unlike post, it may run
// off the test goroutine.
func ingest(s *serve.Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	return rec
}

// TestRefusedRequestsStayOutOfTrainingWindow: a request the server
// refuses — shed with 429, or out of time waiting for a busy shard with
// 503 — ran no batch, so none of its records reach the training window;
// retried once admitted, it leaves the window one successful post
// leaves.
func TestRefusedRequestsStayOutOfTrainingWindow(t *testing.T) {
	meta, _, tail := fixture(t)
	const window = 2000 * time.Hour
	held, body := encode(t, tail[:10]), encode(t, tail[10:1010])
	want := NewRecorder(window, 0)
	once := serve.New(meta, serve.Config{Shards: 1, Window: 30 * time.Minute, OnRecord: want.Shard})
	post(t, once, held)
	post(t, once, body)
	once.Close()
	if want.Seen() != 1010 || want.Unique() == 0 {
		t.Fatalf("one post of each body: Seen() = %d, Unique() = %d", want.Seen(), want.Unique())
	}

	for _, c := range []struct {
		name string
		cfg  serve.Config
		code int
	}{
		{"shed", serve.Config{ShedTimeout: -1}, http.StatusTooManyRequests},
		{"deadlined", serve.Config{RequestTimeout: 50 * time.Millisecond, ShedTimeout: 10 * time.Second}, http.StatusServiceUnavailable},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := faultinject.New(7)
			in.Set(faultinject.ShardSlow, faultinject.Plan{Delay: time.Second, Times: 1})
			rec := NewRecorder(window, 0)
			cfg := c.cfg
			cfg.Shards, cfg.Window, cfg.Inject, cfg.OnRecord = 1, 30*time.Minute, in, rec.Shard
			s := serve.New(meta, cfg)
			defer s.Close()

			// The first request's batch stalls in ShardSlow holding the
			// shard, so the second finds it busy.
			done := make(chan int, 1)
			go func() { done <- ingest(s, held).Code }()
			for in.Fires(faultinject.ShardSlow) == 0 {
				time.Sleep(time.Millisecond)
			}
			events, records, seen := rec.Events(), rec.Len(), rec.Seen()
			if r := ingest(s, body); r.Code != c.code {
				t.Fatalf("status %d, want %d: %s", r.Code, c.code, r.Body.String())
			}
			if !reflect.DeepEqual(rec.Events(), events) || rec.Len() != records || rec.Seen() != seen {
				t.Fatalf("a refused request moved the window: %d unique, %d records, %d seen, was %d, %d, %d",
					rec.Unique(), rec.Len(), rec.Seen(), len(events), records, seen)
			}
			if code := <-done; code != http.StatusOK {
				t.Fatalf("holding request: status %d", code)
			}

			post(t, s, body) // the retry the refusal asks for
			if !reflect.DeepEqual(rec.Events(), want.Events()) || rec.Len() != want.Len() || rec.Seen() != want.Seen() {
				t.Fatalf("refusal and retry leave %d unique, %d records, %d seen; one post leaves %d, %d, %d",
					rec.Unique(), rec.Len(), rec.Seen(), want.Unique(), want.Len(), want.Seen())
			}
		})
	}
}

// wholePhase1 steps a stream through one Interner and one Compressor
// under the defaults. It returns the unique events in slot order and,
// per record, its verdict and the slot it opened or repeats (-1 when
// unclassified).
func wholePhase1(recs []raslog.Event) ([]preprocess.Event, []preprocess.Verdict, []int) {
	clf, comp := catalog.NewInterner(0), preprocess.NewCompressor(preprocess.Options{})
	var events []preprocess.Event
	verdicts, slots := make([]preprocess.Verdict, len(recs)), make([]int, len(recs))
	for i := range recs {
		sub, ok := clf.Classify(&recs[i])
		if !ok {
			slots[i] = -1
			continue
		}
		v, slot := comp.Step(&recs[i], sub.ID)
		verdicts[i], slots[i] = v, slot
		switch v {
		case preprocess.Unique:
			events = append(events, preprocess.Event{Event: recs[i], Sub: sub, Count: 1, Locations: 1})
		case preprocess.SpatialDuplicate:
			events[slot].Locations++
			fallthrough
		default:
			events[slot].Count++
		}
	}
	return events, verdicts, slots
}

// TestDeviationShardedRecorderSplitsCrossShardSpatialRepeats pins the
// named deviation of a served window: it is the shard engines' Phase 1
// outputs merged, not Phase 1 over the whole stream. A one-shard server
// keeps exactly the reference window. With more shards each extra event
// is a record whole-stream Phase 1 calls a spatial duplicate of an event
// on another shard; the records that event and its split-off events
// stand for, and their locations, add up to the whole-stream event's.
// Any other difference fails.
func TestDeviationShardedRecorderSplitsCrossShardSpatialRepeats(t *testing.T) {
	meta, _, _ := fixture(t)
	p := bglsim.ANLProfile().Scaled(0.05)
	p.Machine.Racks = 4
	racks, err := bglsim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	const year = 365 * 24 * time.Hour
	for _, log := range []struct {
		name   string
		events []raslog.Event
		extra  map[int]int // by shard count
	}{
		{"ANL x0.05", fixtureOnce.all, map[int]int{1: 0, 2: 2, 4: 2}},
		{"ANL x0.05, 4 racks", racks.Events, map[int]int{1: 0, 2: 0, 4: 1}},
	} {
		whole, verdicts, slots := wholePhase1(log.events)
		ref := &referenceRecorder{window: year, max: len(log.events) + 1}
		at := make(map[int64]int, len(log.events)) // RecID -> index
		for i := range log.events {
			ref.Observe(log.events[i])
			at[log.events[i].RecID] = i
		}
		pre, _, err := referenceRetrain(ref, threeBases(preprocess.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(whole, pre.Events) {
			t.Fatalf("%s: one Phase 1 over the stream is not the reference window", log.name)
		}
		body := encode(t, log.events)
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s, %d shards", log.name, shards), func(t *testing.T) {
				rec := NewRecorder(year, len(log.events)+1)
				var mu sync.Mutex
				shardOf := make(map[int64]int, len(log.events))
				s := serve.New(meta, serve.Config{Shards: shards, Window: 30 * time.Minute, OnRecord: func(i int) online.RecordFunc {
					take := rec.Shard(i)
					return func(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int) {
						mu.Lock()
						shardOf[ev.RecID] = i
						mu.Unlock()
						take(ev, sub, v, slot)
					}
				}})
				post(t, s, body)
				s.Close()
				if len(shardOf) != len(log.events) {
					t.Fatalf("the engines accepted %d of %d records", len(shardOf), len(log.events))
				}
				got := rec.Events()
				if shards == 1 {
					if !reflect.DeepEqual(got, pre.Events) {
						t.Fatalf("one shard keeps %d events, the reference %d; first difference at %d",
							len(got), len(pre.Events), firstDifference(got, pre.Events))
					}
					return
				}

				held := make(map[int64]*preprocess.Event, len(got))
				for i := range got {
					held[got[i].RecID] = &got[i]
				}
				type credit struct{ count, locations int }
				split := make([]credit, len(whole)) // by whole-stream slot
				extras := 0
				for _, e := range got {
					i := at[e.RecID]
					if verdicts[i] == preprocess.Unique {
						continue
					}
					extras++
					target := &whole[slots[i]]
					if verdicts[i] != preprocess.SpatialDuplicate || shardOf[target.RecID] == shardOf[e.RecID] {
						t.Errorf("record %d opens an event on shard %d; whole-stream Phase 1 calls it verdict %d of record %d on shard %d",
							e.RecID, shardOf[e.RecID], verdicts[i], target.RecID, shardOf[target.RecID])
					}
					split[slots[i]].count += e.Count
					split[slots[i]].locations += e.Locations
				}
				for k := range whole {
					w, e := whole[k], held[whole[k].RecID]
					if e == nil {
						t.Errorf("whole-stream event of record %d is missing", w.RecID)
						continue
					}
					e.Count += split[k].count
					e.Locations += split[k].locations
					if !reflect.DeepEqual(*e, w) {
						t.Errorf("event of record %d with its split-off events: %+v, whole-stream %+v", w.RecID, *e, w)
					}
				}
				if extras != log.extra[shards] {
					t.Errorf("%d extra events, pinned at %d", extras, log.extra[shards])
				}
				t.Logf("%d whole-stream events, %d sharded", len(whole), len(got))
			})
		}
	}
}

// TestRecorderSlabRewindsToReissuedSlot: an engine restarted from its
// last good snapshot issues again the slots it issued since. A slab
// holding slots 0–9 that takes a Unique at slot 5 holds slots 0–5, slot
// 5 the new event, and drops a duplicate of a slot it no longer holds;
// a slab behind a restored engine starts at the engine's next slot and
// drops duplicates of slots from before the restore.
func TestRecorderSlabRewindsToReissuedSlot(t *testing.T) {
	base := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	sub := catalog.MustByName("torusFailure")
	at := func(i int) *raslog.Event {
		ev := uniqueRecord(i, base.Add(time.Duration(i)*time.Minute))
		return &ev
	}
	rec := NewRecorder(0, 0)
	take := rec.Shard(0)
	for i := 0; i < 10; i++ {
		take(at(i), sub, preprocess.Unique, i)
	}
	take(at(100), sub, preprocess.Unique, 5)
	take(at(101), sub, preprocess.TemporalDuplicate, 7)
	take(at(102), sub, preprocess.SpatialDuplicate, 9)
	take(at(103), sub, preprocess.SpatialDuplicate, 5)
	events := rec.Events()
	var ids []int64
	for _, e := range events {
		ids = append(ids, e.RecID)
	}
	if !slices.Equal(ids, []int64{0, 1, 2, 3, 4, 100}) {
		t.Fatalf("slab holds the events of records %v", ids)
	}
	if e := events[5]; e.Count != 2 || e.Locations != 2 {
		t.Fatalf("the event at the re-issued slot counts %d records from %d locations, want 2 and 2", e.Count, e.Locations)
	}
	if rec.Len() != 7 || rec.Unique() != 6 || rec.Seen() != 14 {
		t.Fatalf("Len() = %d, Unique() = %d, Seen() = %d; want 7, 6, 14", rec.Len(), rec.Unique(), rec.Seen())
	}

	restored := NewRecorder(0, 0)
	take = restored.Shard(0)
	take(at(0), sub, preprocess.TemporalDuplicate, 3)
	take(at(1), sub, preprocess.Unique, 50)
	take(at(2), sub, preprocess.SpatialDuplicate, 10)
	take(at(3), sub, preprocess.SpatialDuplicate, 50)
	if events := restored.Events(); len(events) != 1 || events[0].RecID != 1 || events[0].Count != 2 || restored.Len() != 2 {
		t.Fatalf("slab behind a restored engine holds %+v, Len() = %d", events, restored.Len())
	}
}

// TestServedRecorderConcurrentIngestAndRetrain is meant for -race: two
// shards' engines feed the recorder from concurrent requests — the
// window pruning and capping across both slabs under their feet — while
// retrains read it.
func TestServedRecorderConcurrentIngestAndRetrain(t *testing.T) {
	meta, _, tail := fixture(t)
	rec := NewRecorder(2*time.Hour, 500)
	// serve's routing with two shards: a location's midplane, 0 for a
	// rack or an unknown location.
	byMidplane := func(loc raslog.Location) int { return loc.Midplane }
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Pipeline: threeBases(preprocess.Options{})})

	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		var part []raslog.Event
		for i := range tail {
			if byMidplane(tail[i].Location) == shard {
				part = append(part, tail[i])
			}
		}
		if len(part) == 0 {
			t.Fatalf("no record of the tail routes to shard %d", shard)
		}
		var bodies [][]byte
		for lo := 0; lo < len(part); lo += 500 {
			bodies = append(bodies, encode(t, part[lo:min(lo+500, len(part))]))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies {
				if r := ingest(s, body); r.Code != http.StatusOK {
					t.Errorf("ingest: status %d: %s", r.Code, r.Body.String())
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for ingesting := true; ingesting; {
		select {
		case <-done:
			ingesting = false
		default:
		}
		if events := rec.Events(); len(events) > 500 {
			t.Fatalf("cap leaked: %d events", len(events))
		}
		// A retrain may find too little in the window; it must not panic.
		_, _ = rt.RetrainNow()
		if n, seen := rec.Len(), rec.Seen(); int64(n) > seen {
			t.Fatalf("Len() = %d exceeds Seen() = %d", n, seen)
		}
	}
	if got := rec.Seen(); got != int64(len(tail)) {
		t.Fatalf("Seen() = %d after %d records", got, len(tail))
	}
}
