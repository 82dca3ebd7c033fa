package lifecycle

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
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
	"bglpred/internal/model"
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
// are the artifacts packaged from them under a fixed provenance. The
// artifacts' per-base sections are left out of the second comparison
// and covered by the first: they are gob payloads, gob writes a map in
// iteration order, so one model has many encodings.
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
		art.Sections = nil
		arts[i] = art
	}
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(arts[0], arts[1])
}

// TestRecorderMatchesReferenceRetrain is the replacement's oracle: over
// seeds, machine sizes and Phase 1 option sets, the recorder's window
// is preprocess.Run's output over the raw window and the model trained
// from it is the reference cycle's model — statistical, rule and ecg
// sections alike.
func TestRecorderMatchesReferenceRetrain(t *testing.T) {
	optionSets := []struct {
		name string
		opts preprocess.Options
	}{
		{"defaults", preprocess.Options{}},
		{"literal temporal key", preprocess.Options{TemporalKeyIgnoresCategory: true}},
		{"60s temporal, 15min spatial", preprocess.Options{TemporalThreshold: time.Minute, SpatialThreshold: 15 * time.Minute}},
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
			for _, set := range optionSets {
				t.Run(fmt.Sprintf("seed %d, %d racks, %s", seed, racks, set.name), func(t *testing.T) {
					cfg := threeBases(set.opts)
					rec := NewRecorder(year, len(gen.Events)+1)
					rec.adopt(cfg.Preprocess)
					for i := range gen.Events {
						rec.Observe(gen.Events[i])
					}

					pre, want, err := referenceRetrain(ref, cfg)
					if err != nil {
						t.Fatal(err)
					}
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
					if want.Rule.Rules().Len() == 0 {
						t.Fatal("reference cycle mined no rules; the comparison is vacuous")
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

// TestRetrainerAdoptsOrRefusesRecorderOptions: Phase 1 runs in the
// recorder, so the retrainer's Pipeline.Preprocess must be the options
// the recorder compressed under — adopted when the recorder is still
// empty, refused when it already filled under others.
func TestRetrainerAdoptsOrRefusesRecorderOptions(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2})
	defer s.Close()
	literal := threeBases(preprocess.Options{TemporalKeyIgnoresCategory: true, Workers: 3})

	// Adopt: an empty recorder takes the pipeline's options, and its
	// window is Phase 1 under them.
	const year = 365 * 24 * time.Hour
	fresh := NewRecorder(year, 0)
	rt := NewRetrainer(s, fresh, RetrainerConfig{MinEvents: 10, Pipeline: literal})
	for i := range tail {
		fresh.Observe(tail[i])
	}
	if want := preprocess.Run(tail, literal.Preprocess).Events; !reflect.DeepEqual(fresh.Events(), want) {
		t.Fatalf("adopting recorder holds %d events, Phase 1 under the pipeline's options yields %d", fresh.Unique(), len(want))
	}
	if len(fresh.Events()) == len(preprocess.Run(tail, preprocess.Options{}).Events) {
		t.Fatal("the two option sets compress the fixture alike; the test distinguishes nothing")
	}
	if _, err := rt.RetrainNow(); err != nil {
		t.Fatalf("retrain over an adopting recorder: %v", err)
	}

	// Refuse: a recorder that filled under the defaults, paired with the
	// literal-key pipeline afterwards.
	filled := NewRecorder(year, 0)
	for i := range tail {
		filled.Observe(tail[i])
	}
	before := s.Model()
	_, err := NewRetrainer(s, filled, RetrainerConfig{MinEvents: 10, Pipeline: literal}).RetrainNow()
	if err == nil {
		t.Fatal("retrain over a recorder compressed under other options succeeded")
	}
	for _, want := range []string{"TemporalKeyIgnoresCategory:false", "TemporalKeyIgnoresCategory:true"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the option set with %s", err, want)
		}
	}
	if got := s.Model(); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused retrain moved the model: %+v -> %+v", before, got)
	}

	// Options that differ only in parallelism or in spelling the
	// defaults out compress alike and are accepted.
	same := threeBases(preprocess.Options{TemporalThreshold: preprocess.DefaultThreshold, Workers: 7})
	if _, err := NewRetrainer(s, filled, RetrainerConfig{MinEvents: 10, Pipeline: same}).RetrainNow(); err != nil {
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
// credited without allocating.
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
}

// BenchmarkServeIngestObserved posts the fixture's tail as 4096-record
// wire bodies into a fresh two-shard server per pass, once with the
// recorder as its Observer, the way bglserved runs, and once without.
// The difference is what observing costs a served record, the
// recorder_observe timer included.
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
					cfg.Observer = NewRecorder(6*time.Hour, 0).Observe
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

// baseStates is each base's State section. The statistical section is
// re-encoded as JSON, whose map keys are sorted: gob writes its maps in
// iteration order, so its bytes differ from one State call to the next.
func baseStates(t *testing.T, m *predictor.Meta) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, b := range m.Bases() {
		data, err := b.State()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if b.Name() == predictor.SourceStatistical {
			var st predictor.StatState
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if data, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
		}
		out[b.Name()] = data
	}
	return out
}

// TestRetrainBufferDoesNotAlias: a retrain copies the recorder's window
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
	first, _, err := rt.train()
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

// TestTrainingClearsStaleBufferTail checks that a window shorter than
// the buffer it is copied into leaves no earlier events reachable past
// its end.
func TestTrainingClearsStaleBufferTail(t *testing.T) {
	_, _, _ = fixture(t)
	all := fixtureOnce.all
	rec := NewRecorder(365*24*time.Hour, 1500)
	for i := range all[:len(all)/10] {
		rec.Observe(all[i])
	}
	window := rec.Events()
	if len(window) == 0 {
		t.Fatal("the recorder holds no events; the check is vacuous")
	}
	stale := make([]preprocess.Event, 2*len(window))
	for i := range stale {
		stale[i] = window[0]
	}
	events, _, _ := rec.training(stale[:0])
	if len(events) != len(window) {
		t.Fatalf("training returned %d events, want %d", len(events), len(window))
	}
	for i, e := range events[len(events):cap(events)] {
		if !reflect.DeepEqual(e, preprocess.Event{}) {
			t.Fatalf("slot %d past the window still holds %v", len(events)+i, e)
		}
	}
}
