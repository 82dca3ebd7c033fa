package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/edge"
	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// fixtureOnce shares one trained meta-learner, its artifact, and a
// held-out tail across the package's tests.
var fixtureOnce struct {
	sync.Once
	meta *predictor.Meta
	art  *model.Artifact
	tail []raslog.Event
	all  []raslog.Event // the whole generated log, tail included
	err  error
}

func fixture(t testing.TB) (*predictor.Meta, *model.Artifact, []raslog.Event) {
	t.Helper()
	fixtureOnce.Do(func() {
		gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.05))
		if err != nil {
			fixtureOnce.err = err
			return
		}
		cut := len(gen.Events) * 8 / 10
		pre := preprocess.Run(gen.Events[:cut], preprocess.Options{})
		m := predictor.NewMeta()
		if err := m.Train(pre.Events); err != nil {
			fixtureOnce.err = err
			return
		}
		art, err := model.FromMeta(m, model.Provenance{Source: "lifecycle fixture"})
		if err != nil {
			fixtureOnce.err = err
			return
		}
		fixtureOnce.meta = m
		fixtureOnce.art = art
		fixtureOnce.tail = gen.Events[cut:]
		fixtureOnce.all = gen.Events
	})
	if fixtureOnce.err != nil {
		t.Fatal(fixtureOnce.err)
	}
	return fixtureOnce.meta, fixtureOnce.art, fixtureOnce.tail
}

func encode(t *testing.T, events []raslog.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, s *serve.Server, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
}

func getAlerts(t *testing.T, s *serve.Server) serve.AlertsResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/alerts", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("alerts: status %d", rec.Code)
	}
	var resp serve.AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// alertKey strips server-assigned sequence numbers so alert streams
// from different server instances compare by content.
type alertKey struct {
	Shard      int
	At, End    time.Time
	Confidence float64
	Source     string
}

// keysOf groups alerts by shard, preserving per-shard order. Shards
// drain concurrently, so the global interleaving in the ring buffer is
// scheduling-dependent — but each shard's subsequence is deterministic
// and is what equivalence means for sharded streams.
func keysOf(alerts []serve.Alert) map[int][]alertKey {
	out := make(map[int][]alertKey)
	for _, a := range alerts {
		out[a.Shard] = append(out[a.Shard],
			alertKey{Shard: a.Shard, At: a.At, End: a.End, Confidence: a.Confidence, Source: a.Source})
	}
	return out
}

// TestKillAndRestoreEquivalence is the crash-recovery acceptance test:
// a server killed mid-stream and restored from its checkpoint must
// emit exactly the alerts an uninterrupted server emits — same
// alarms, same shards, same confidences — over the remainder of the
// stream.
func TestKillAndRestoreEquivalence(t *testing.T) {
	meta, art, tail := fixture(t)
	dir := t.TempDir()
	cfg := serve.Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute}

	// The uninterrupted control run.
	control := serve.New(meta, cfg)
	defer control.Close()
	post(t, control, encode(t, tail))
	want := getAlerts(t, control)

	// The interrupted run: ingest half, checkpoint, die (Close without
	// any further teardown — the checkpoint is all that survives).
	mi, err := art.Save(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	half := len(tail) / 2
	firstCfg := cfg
	firstCfg.Model = serve.ModelInfo{SHA256: mi.SHA256}
	first := serve.New(meta, firstCfg)
	post(t, first, encode(t, tail[:half]))
	firstAlerts := getAlerts(t, first)
	led := openTestLedger(t, dir, ledger.Config{})
	if _, err := NewCheckpointer(first, CheckpointerConfig{Ledger: led, Dir: dir}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// The restored run: load the model artifact from disk, rebuild the
	// server, restore shard state, continue the stream.
	loadedArt, info, err := model.Load(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadedMeta, err := loadedArt.Meta()
	if err != nil {
		t.Fatal(err)
	}
	restored := serve.New(loadedMeta, cfg)
	defer restored.Close()
	cp, err := NewCheckpointer(restored, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore(info.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint found after CheckpointNow")
	}
	if cp.ModelSHA256 != info.SHA256 {
		t.Fatalf("checkpoint model sha %.12s != artifact sha %.12s", cp.ModelSHA256, info.SHA256)
	}
	post(t, restored, encode(t, tail[half:]))
	got := getAlerts(t, restored)

	// Equivalence: per shard, first-half alerts ++ restored-run alerts
	// == control.
	combined := keysOf(firstAlerts.Recent)
	for shard, keys := range keysOf(got.Recent) {
		combined[shard] = append(combined[shard], keys...)
	}
	if !reflect.DeepEqual(combined, keysOf(want.Recent)) {
		t.Fatalf("alert streams diverge:\ninterrupted+restored: %+v\nuninterrupted: %+v",
			combined, keysOf(want.Recent))
	}
	if want.TotalAlerts == 0 {
		t.Fatal("control run raised no alerts; fixture is degenerate")
	}
	// The restored server's lifetime counters continue the first run's
	// (it retrained nothing and re-ingested nothing).
	if got.TotalAlerts != want.TotalAlerts-firstAlerts.TotalAlerts {
		t.Fatalf("restored run raised %d alerts, want %d", got.TotalAlerts, want.TotalAlerts-firstAlerts.TotalAlerts)
	}
}

// TestParentCheckpointRestores is the checkpoint compatibility golden:
// testdata/checkpoint_parent.bglc was written by the commit before the
// Phase 1 kernel (engine-private dedup tables, map-ordered export)
// from a 3-shard server over the fixture model after
// tail[:parentCheckpointCut], with an alarm standing on shard 0 and
// shard 2 never touched. It must load, restore, and yield the alerts
// an uninterrupted run emits over the rest of the stream. Re-exported
// straight after the restore, it must marshal to the bytes of
// testdata/checkpoint_parent_reexport.bglc, last rewritten when the
// engine state gained Taken and Counters.Duplicate (gob describes every
// field of a type, so new fields move the bytes of an equal value).
func TestParentCheckpointRestores(t *testing.T) {
	const parentCheckpointCut = 10554
	meta, _, tail := fixture(t)
	cfg := serve.Config{Shards: 3, History: 1 << 16, Window: 30 * time.Minute}

	control := serve.New(meta, cfg)
	defer control.Close()
	post(t, control, encode(t, tail[:parentCheckpointCut]))
	before := getAlerts(t, control)
	post(t, control, encode(t, tail[parentCheckpointCut:]))
	want := getAlerts(t, control)

	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_parent.bglc"))
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if st := cp.Shards[0]; !st.Stepper.Active || !st.Stepper.Current.End.After(st.LastSeen) || len(st.Temporal) == 0 {
		t.Fatalf("golden carries no standing alarm or no compression windows: %+v", st)
	}
	restored := serve.New(meta, cfg)
	defer restored.Close()
	if err := restored.RestoreShards(cp.Shards); err != nil {
		t.Fatal(err)
	}
	reexport := *cp
	reexport.Shards = restored.ExportShards()
	saved, _, err := encodeCheckpoint(&reexport)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_parent_reexport.bglc"))
	if err != nil {
		t.Fatal(err)
	}
	// The re-export must decode to what the parent's re-export decodes
	// to, and marshal to its bytes, which pin gob's type numbering too.
	savedCP, _, err := DecodeCheckpoint(saved)
	if err != nil {
		t.Fatal(err)
	}
	goldenCP, _, err := DecodeCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(savedCP, goldenCP) {
		t.Fatal("re-exported checkpoint decodes to other content than the parent's re-export")
	}
	if !bytes.Equal(saved, golden) {
		t.Fatalf("re-exported checkpoint (%d bytes) differs from the parent's re-export (%d bytes)", len(saved), len(golden))
	}
	post(t, restored, encode(t, tail[parentCheckpointCut:]))
	got := getAlerts(t, restored)

	combined := keysOf(before.Recent)
	for shard, keys := range keysOf(got.Recent) {
		combined[shard] = append(combined[shard], keys...)
	}
	if !reflect.DeepEqual(combined, keysOf(want.Recent)) {
		t.Fatalf("alert streams diverge:\nparent checkpoint + restored: %+v\nuninterrupted: %+v",
			combined, keysOf(want.Recent))
	}
	if got.TotalAlerts == 0 {
		t.Fatal("restored run raised no alerts; golden is degenerate")
	}
	// The alert stream tolerates a stray unique event; the counters do
	// not, so they pin the restored compression windows too.
	wantStates := control.ExportShards()
	for i, st := range restored.ExportShards() {
		if st.Counters != wantStates[i].Counters {
			t.Errorf("shard %d counters %+v, uninterrupted %+v", i, st.Counters, wantStates[i].Counters)
		}
	}
}

// TestRestoreRefusesWrongModel: stale state over different rules must
// be refused, not silently served. With no artifact on disk matching
// the checkpoint's model, the restore is a cold start.
func TestRestoreRefusesWrongModel(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	cfg := serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: "aaaa"}}
	s := serve.New(meta, cfg)
	post(t, s, encode(t, tail[:100]))
	led := openTestLedger(t, dir, ledger.Config{})
	if _, err := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	fresh := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: "bbbb"}})
	defer fresh.Close()
	if cp, err := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore("bbbb"); cp != nil || err != nil {
		t.Fatalf("restore over a different model: cp=%v err=%v, want a cold start", cp, err)
	}
	for i, st := range fresh.ExportShards() {
		if st.Counters.Ingested != 0 {
			t.Fatalf("shard %d carries %d ingested records of the refused checkpoint", i, st.Counters.Ingested)
		}
	}
	if got := fresh.Model().SHA256; got != "bbbb" {
		t.Fatalf("refused restore swapped the model to %.12s", got)
	}
	// A ledger holding no checkpoint is a clean cold start.
	empty := openTestLedger(t, t.TempDir(), ledger.Config{})
	if cp, err := NewCheckpointer(fresh, CheckpointerConfig{Ledger: empty, Dir: dir}).Restore("bbbb"); cp != nil || err != nil {
		t.Fatalf("cold start: cp=%v err=%v", cp, err)
	}
}

// TestRestoreRequiresEqualModelSHAs: an empty SHA is no wildcard. State
// taken against an in-memory model that was never persisted must not
// be restored over a model that was, nor state taken against a
// persisted model over an in-memory one.
func TestRestoreRequiresEqualModelSHAs(t *testing.T) {
	meta, _, tail := fixture(t)
	for _, c := range []struct{ saved, booted string }{{"", "aaaa"}, {"aaaa", ""}} {
		dir := t.TempDir()
		led := openTestLedger(t, dir, ledger.Config{})
		s := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: c.saved}})
		post(t, s, encode(t, tail[:100]))
		if _, err := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir}).CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		s.Close()

		fresh := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: c.booted}})
		cp, err := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore(c.booted)
		if cp != nil || err != nil {
			t.Fatalf("checkpoint of model %q restored into model %q: cp=%v err=%v, want a cold start", c.saved, c.booted, cp != nil, err)
		}
		for i, st := range fresh.ExportShards() {
			if st.Counters.Ingested != 0 {
				t.Fatalf("model %q: shard %d carries %d ingested records of the refused checkpoint", c.booted, i, st.Counters.Ingested)
			}
		}
		fresh.Close()
	}
}

// TestGoldenV1HotSwap is the cross-version serving acceptance test:
// the committed version-1 artifact must load (converting to sections),
// rebuild, and hot-swap into a running server, with /v1/model
// reporting the classic base-predictor pair.
func TestGoldenV1HotSwap(t *testing.T) {
	meta, _, _ := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2})
	defer s.Close()

	golden := filepath.Join("..", "model", "testdata", "golden_v1.bglm")
	art, info, err := model.Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("golden artifact version = %d, want 1", info.Version)
	}
	goldenMeta, err := art.Meta()
	if err != nil {
		t.Fatal(err)
	}
	swapped := s.SwapModel(goldenMeta, serve.ModelInfo{
		SHA256:    info.SHA256,
		Source:    art.Provenance.Source,
		TrainedAt: art.Provenance.TrainedAt,
	})
	if swapped.Version != 2 {
		t.Fatalf("swap version = %d, want 2 (generation after startup)", swapped.Version)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/model: status %d", rec.Code)
	}
	var resp serve.ModelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SHA256 != info.SHA256 {
		t.Fatalf("/v1/model sha %.12s, want golden %.12s", resp.SHA256, info.SHA256)
	}
	if want := []string{predictor.SourceStatistical, predictor.SourceRule}; !reflect.DeepEqual(resp.Predictors, want) {
		t.Fatalf("/v1/model predictors = %v, want %v", resp.Predictors, want)
	}
	if resp.Rules != 2 {
		t.Fatalf("/v1/model rules = %d, want the golden's 2", resp.Rules)
	}
}

// TestHotSwapUnderConcurrentIngest is the zero-loss acceptance test,
// meant for -race: ingestion hammers the server from several
// goroutines while the model is hot-swapped repeatedly mid-stream.
// Because each swap transplants shard state onto an equivalent
// reloaded model, the final alert stream must be identical to a
// swap-free control run: nothing lost, nothing duplicated.
func TestHotSwapUnderConcurrentIngest(t *testing.T) {
	meta, art, tail := fixture(t)
	cfg := serve.Config{Shards: 4, History: 1 << 16, Window: 30 * time.Minute}

	control := serve.New(meta, cfg)
	defer control.Close()
	post(t, control, encode(t, tail))
	want := getAlerts(t, control)
	if want.TotalAlerts == 0 {
		t.Fatal("control run raised no alerts")
	}

	s := serve.New(meta, cfg)
	defer s.Close()

	// Swapper: rebuild an equivalent meta from the artifact and swap it
	// in, concurrently with ingestion.
	swapMeta, err := art.Meta()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.SwapModel(swapMeta, serve.ModelInfo{Source: "race swap"})
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Ingest the tail in small chunks; each post returns once its
	// records have run, so chunks interleave with swaps.
	const chunk = 64
	for i := 0; i < len(tail); i += chunk {
		end := i + chunk
		if end > len(tail) {
			end = len(tail)
		}
		post(t, s, encode(t, tail[i:end]))
	}
	close(stop)
	swapper.Wait()

	got := getAlerts(t, s)
	if s.Swaps() == 0 {
		t.Fatal("no swaps happened during ingestion; the race never raced")
	}
	if !reflect.DeepEqual(keysOf(got.Recent), keysOf(want.Recent)) {
		t.Fatalf("hot-swaps perturbed the alert stream after %d swaps:\ngot  (%d): %+v\nwant (%d): %+v",
			s.Swaps(), len(got.Recent), keysOf(got.Recent), len(want.Recent), keysOf(want.Recent))
	}
	t.Logf("alert stream identical across %d hot-swaps", s.Swaps())
}

// TestCheckpointerRun drives the periodic loop: snapshots appear on
// the interval and a final one lands on shutdown.
func TestCheckpointerRun(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	s := serve.New(meta, serve.Config{Shards: 2})
	defer s.Close()
	post(t, s, encode(t, tail[:200]))

	led := openTestLedger(t, dir, ledger.Config{})
	ck := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir, Interval: 10 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { ck.Run(ctx); close(done) }()
	time.Sleep(60 * time.Millisecond)
	periodic := ck.Saves()
	cancel()
	<-done

	if periodic < 2 {
		t.Fatalf("only %d periodic checkpoints in 60ms at 10ms interval", periodic)
	}
	if ck.Saves() <= periodic {
		t.Fatal("no final checkpoint on shutdown")
	}
	cp, _, _, err := LoadCheckpointFromLedger(led)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Shards) != 2 || cp.SavedAt.IsZero() {
		t.Fatalf("checkpoint = %+v", cp)
	}
	var ingested int64
	for _, st := range cp.Shards {
		ingested += st.Counters.Ingested
	}
	if ingested != 200 {
		t.Fatalf("checkpoint records %d ingested, want 200", ingested)
	}
}

// TestRetrainerRetrainNow: a retrain over recorded traffic swaps a
// fresh model in and persists both the active and the versioned
// artifact.
func TestRetrainerRetrainNow(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))
	if rec.Len() == 0 {
		t.Fatal("recorder saw nothing")
	}

	rt := NewRetrainer(s, rec, RetrainerConfig{
		MinEvents: 10,
		Dir:       dir,
		Logf:      t.Logf,
	})
	// Pin the rule window so the test skips the 12-candidate sweep.
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute

	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.SHA256 == "" {
		t.Fatalf("retrained info = %+v", info)
	}
	if got := s.Model(); got.Version != 2 || got.SHA256 != info.SHA256 {
		t.Fatalf("server model = %+v, want swap to %+v", got, info)
	}
	for _, p := range []string{ModelPath(dir), VersionedModelPath(dir, 2)} {
		if _, err := model.Verify(p); err != nil {
			t.Fatalf("artifact %s: %v", p, err)
		}
	}
	// The persisted artifact is loadable and reports the provenance of
	// this retrain.
	a, _, err := model.Load(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Records is the raw count the window stands for, Unique its events;
	// the span runs from the first retained representative to the
	// newest record observed.
	window, prov := rec.Events(), a.Provenance
	if prov.Records != rec.Len() || prov.Unique != len(window) || prov.Unique >= prov.Records {
		t.Fatalf("provenance counts %d records, %d unique; the recorder holds %d and %d", prov.Records, prov.Unique, rec.Len(), len(window))
	}
	if !prov.LogStart.Equal(window[0].Time) || !prov.LogEnd.Equal(tail[len(tail)-1].Time) {
		t.Fatalf("provenance spans %v to %v; first representative %v, newest record %v",
			prov.LogStart, prov.LogEnd, window[0].Time, tail[len(tail)-1].Time)
	}
	if rt.LastCycle() <= 0 {
		t.Fatal("LastCycle() is zero after a completed retrain")
	}

	// Too little data refuses and leaves the serving model untouched.
	starved := NewRetrainer(s, NewRecorder(0, 0), RetrainerConfig{MinEvents: 10})
	if _, err := starved.RetrainNow(); err == nil {
		t.Fatal("retrain over an empty recorder succeeded")
	}
	if got := s.Model(); got.Version != 2 {
		t.Fatalf("failed retrain moved the model: %+v", got)
	}

}

// TestRetrainArtifactCopiesAreIdentical: one retrain encodes its
// artifact once, so the active artifact and the versioned copy are the
// same bytes, and their hash is the SHA the server publishes.
func TestRetrainArtifactCopiesAreIdentical(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Logf: t.Logf})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
	rt.cfg.Pipeline.Predictors = []string{"statistical", "rule", "ecg"}
	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	active, err := os.ReadFile(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	versioned, err := os.ReadFile(VersionedModelPath(dir, info.Version))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(active, versioned) {
		t.Fatalf("active artifact (%d bytes) and versioned copy (%d bytes) differ", len(active), len(versioned))
	}
	if _, got, err := model.Decode(active); err != nil || got.SHA256 != info.SHA256 {
		t.Fatalf("active artifact hashes to %s (err %v), the server serves %s", got.SHA256, err, info.SHA256)
	}
}

// TestRetrainCopyReplacesAnExistingFile: a versioned copy whose name a
// file already holds (left by an earlier process that numbered its
// generations from 1 too) ends up holding this generation's bytes,
// linked to the active artifact, with no staging name left behind.
func TestRetrainCopyReplacesAnExistingFile(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	stale := []byte("an earlier process's generation 2")
	if err := os.WriteFile(VersionedModelPath(dir, 2), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Logf: t.Logf})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("retrained version %d, want 2", info.Version)
	}
	active, err := os.Stat(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	versioned, err := os.Stat(VersionedModelPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(active, versioned) {
		t.Fatal("the versioned copy is not the active artifact's file")
	}
	if got, err := model.Verify(VersionedModelPath(dir, 2)); err != nil || got.SHA256 != info.SHA256 {
		t.Fatalf("versioned copy hashes to %.12s (err %v), the server serves %.12s", got.SHA256, err, info.SHA256)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want the active artifact and its one copy", names)
	}
}

// TestRetrainStagesSumToCycle: each stage histogram times one stage of
// a cycle, so after one retrain the stages' sums add up to within 10 %
// of bglserved_retrain_seconds (the swap, a few microseconds, is the
// only part of the cycle no stage times).
func TestRetrainStagesSumToCycle(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{})
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Ledger: led, Logf: t.Logf})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
	rt.cfg.Pipeline.Predictors = []string{"statistical", "rule", "ecg"}
	if _, err := rt.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	scrape := httptest.NewRecorder()
	edge.ServeMetrics(scrape, func(m *edge.Metrics) {
		m.GaugeSeconds("bglserved_retrain_seconds", "Last cycle.", rt.LastCycle())
		m.HistogramVec("bglserved_retrain_stage_seconds", "Stages.", "stage", RetrainStages, rt.Stage)
	})
	if scrape.Code != http.StatusOK {
		t.Fatalf("scrape: %d %s", scrape.Code, scrape.Body)
	}
	var cycle, sum float64
	stages := 0
	for _, line := range strings.Split(scrape.Body.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch {
		case name == "bglserved_retrain_seconds":
			cycle = v
		case strings.HasPrefix(name, "bglserved_retrain_stage_seconds_sum{"):
			sum += v
			stages++
		case strings.HasPrefix(name, "bglserved_retrain_stage_seconds_count{") && v != 1:
			t.Errorf("%s: %v observations after one retrain, want 1", name, v)
		}
	}
	if stages != int(numStages) || cycle <= 0 {
		t.Fatalf("scrape holds %d stage sums and a cycle of %v s:\n%s", stages, cycle, scrape.Body)
	}
	if math.Abs(sum-cycle) > 0.1*cycle {
		t.Fatalf("stages sum to %.6f s, the cycle took %.6f s", sum, cycle)
	}
}
