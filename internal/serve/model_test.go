package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/online"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// getModel fetches /v1/model through the handler.
func getModel(t *testing.T, s *Server) ModelResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("model: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ModelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestModelEndpointReportsIdentity(t *testing.T) {
	meta, _ := fixture(t)
	trainedAt := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	s := New(meta, Config{Shards: 2, Model: ModelInfo{
		SHA256:    "deadbeef",
		TrainedAt: trainedAt,
		Source:    "unit fixture",
	}})
	defer s.Close()

	got := getModel(t, s)
	if got.Version != 1 || got.SHA256 != "deadbeef" || got.Source != "unit fixture" {
		t.Fatalf("model info = %+v", got)
	}
	if want := meta.Rule.Rules().Len(); got.Rules != want || want == 0 {
		t.Fatalf("rules = %d, the model's rule base mined %d", got.Rules, want)
	}
	if got.Swaps != 0 || got.AgeSeconds < 0 {
		t.Fatalf("swaps=%d age=%g", got.Swaps, got.AgeSeconds)
	}
	if !got.TrainedAt.Equal(trainedAt) {
		t.Fatalf("trained_at = %v", got.TrainedAt)
	}
}

func TestSwapModelBumpsVersionAndKeepsServing(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()

	half := len(tail) / 2
	post(t, s, encode(t, tail[:half]))
	before := getAlerts(t, s)

	info := s.SwapModel(meta, ModelInfo{SHA256: "cafe", Source: "retrain"})
	if info.Version != 2 {
		t.Fatalf("swap produced version %d, want 2", info.Version)
	}
	if got := getModel(t, s); got.Version != 2 || got.Swaps != 1 || got.SHA256 != "cafe" {
		t.Fatalf("after swap: %+v", got)
	}

	// Swapping in the same trained model must not disturb the alert
	// stream: ingestion continues as one logical stream.
	post(t, s, encode(t, tail[half:]))
	after := getAlerts(t, s)
	if after.TotalAlerts < before.TotalAlerts {
		t.Fatalf("alerts went backwards across swap: %d -> %d", before.TotalAlerts, after.TotalAlerts)
	}

	// The two-server control: same stream, no swap, must agree.
	control := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer control.Close()
	post(t, control, encode(t, tail))
	want := getAlerts(t, control)
	if after.TotalAlerts != want.TotalAlerts {
		t.Fatalf("swap changed the alert stream: got %d alerts, control %d", after.TotalAlerts, want.TotalAlerts)
	}
}

// TestModelWithoutRuleBaseReportsNoRules swaps in a statistical+ecg
// model: /v1/model must report its bases and 0 rules, whatever rule
// count the caller's ModelInfo carried.
func TestModelWithoutRuleBaseReportsNoRules(t *testing.T) {
	meta, tail := fixture(t)
	trained, err := core.New(core.Config{Predictors: []string{"statistical", "ecg"}}).
		Train(preprocess.Run(tail, preprocess.Options{}).Events)
	if err != nil {
		t.Fatal(err)
	}
	if trained.Rule != nil {
		t.Fatal("a statistical+ecg training produced a rule base")
	}
	s := New(meta, Config{Shards: 1})
	defer s.Close()
	s.SwapModel(trained.Meta, ModelInfo{Source: "no rule base", Rules: 7})
	got := getModel(t, s)
	if got.Rules != 0 || !reflect.DeepEqual(got.Predictors, []string{"statistical", "ecg"}) {
		t.Fatalf("rules = %d, predictors = %v; want 0 and [statistical ecg]", got.Rules, got.Predictors)
	}
}

func TestModelReloadEndpoint(t *testing.T) {
	meta, _ := fixture(t)

	// Without a hook: 501.
	s := New(meta, Config{Shards: 1})
	req := httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("reload without hook: status %d, want 501", rec.Code)
	}
	s.Close()

	// With a hook that swaps: 200 and the new identity.
	var s2 *Server
	calls := 0
	s2 = New(meta, Config{Shards: 1, Reload: func() error {
		calls++
		s2.SwapModel(meta, ModelInfo{Source: "reloaded"})
		return nil
	}})
	defer s2.Close()
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ModelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || resp.Version != 2 || resp.Source != "reloaded" {
		t.Fatalf("calls=%d resp=%+v", calls, resp)
	}

	// A failing hook surfaces as 500.
	s3 := New(meta, Config{Shards: 1, Reload: func() error { return errors.New("mining failed") }})
	defer s3.Close()
	rec = httptest.NewRecorder()
	s3.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing reload: status %d, want 500", rec.Code)
	}
}

func TestExportRestoreShardsRoundTrip(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:len(tail)/2]))

	states := s.ExportShards()
	if len(states) != 2 {
		t.Fatalf("exported %d states", len(states))
	}

	// Mismatched shard count is refused with a actionable error.
	wrong := New(meta, Config{Shards: 3})
	defer wrong.Close()
	if err := wrong.RestoreShards(states); err == nil {
		t.Fatal("restore into a 3-shard server accepted a 2-shard checkpoint")
	}

	fresh := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer fresh.Close()
	if err := fresh.RestoreShards(states); err != nil {
		t.Fatal(err)
	}
	for i, sh := range fresh.shards {
		got, want := sh.engine().Snapshot(), s.shards[i].engine().Snapshot()
		if got.Counters != want.Counters || !got.LastSeen.Equal(want.LastSeen) || got.PendingKeys != want.PendingKeys {
			t.Fatalf("shard %d: restored %+v, want %+v", i, got, want)
		}
	}

	// Restoring into a server that already ingested is refused.
	if err := s.RestoreShards(states); err == nil {
		t.Fatal("restore into a non-fresh server accepted")
	}
}

// TestObserverSeesAcceptedRecords: the engine hook OnRecord hands each
// shard gets every record of a request routed to that shard, whole and
// in request order, across the batches that fill and run mid-body, with
// the verdicts the engine's own Phase 1 reached.
func TestObserverSeesAcceptedRecords(t *testing.T) {
	meta, tail := fixture(t)
	n := min(3*wireBatchCap+17, len(tail))
	if n <= 2*wireBatchCap {
		t.Fatalf("the tail has %d records; the test needs batches to fill mid-body", len(tail))
	}
	seen := make([][]raslog.Event, 2)
	unique := make([]int64, 2)
	s := New(meta, Config{Shards: 2, OnRecord: func(i int) online.RecordFunc {
		// Shard i's engine lock serializes its hook's calls.
		return func(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int) {
			seen[i] = append(seen[i], *ev)
			if sub != nil && v == preprocess.Unique {
				unique[i]++
			}
		}
	}})
	defer s.Close()

	post(t, s, encode(t, tail[:n]))
	for i, sh := range s.shards {
		var want []raslog.Event
		for j := range tail[:n] {
			if s.shardFor(&tail[j].Location) == sh {
				want = append(want, tail[j])
			}
		}
		if len(want) == 0 {
			t.Fatalf("no record of the request routes to shard %d; the test checks nothing there", i)
		}
		if !slices.Equal(seen[i], want) {
			t.Fatalf("shard %d's hook saw %d records, %d were routed to it; first difference at %d",
				i, len(seen[i]), len(want), firstDiff(seen[i], want))
		}
		if got := sh.engine().Counters().Unique; unique[i] != got {
			t.Fatalf("shard %d's hook saw %d unique verdicts, its engine counts %d", i, unique[i], got)
		}
	}
}

func firstDiff(a, b []raslog.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
