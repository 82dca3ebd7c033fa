package lifecycle

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bglpred/internal/faultinject"
	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/serve"
)

// chaosSeed fixes the whole acceptance run: the injector schedules,
// the retry jitter, everything. CI replays this exact run under -race.
const chaosSeed = 0xB61C0FFEE

// TestChaosAcceptance is the fault-injection acceptance test: it
// replays the bglsim tail through a server while shard batches panic
// on a schedule and every persistence write fights injected ENOSPC
// and fsync failures, and asserts the resilience contract end to end:
//
//   - /healthz answers ok after every chunk (alert continuity — the
//     service never went down),
//   - every injected panic produced a supervised restart, and the
//     alert stream still matches a fault-free reference run exactly
//     (SnapshotEvery=1 makes restarts provably lossless),
//   - checkpoints (appended to the audit ledger) and the retrained
//     model artifact land despite the write faults (retries spent,
//     zero give-ups, the artifact verifies through a clean filesystem),
//   - the final checkpoint restores into a fresh server whose
//     standing alarms match the chaos run's,
//   - injected ingest corruption is bounded by the quarantine
//     accounting: exactly the faulted records are parked, everything
//     else is served.
func TestChaosAcceptance(t *testing.T) {
	meta, _, tail := fixture(t)

	// Reference: the per-shard alert streams of a fault-free server.
	clean := serve.New(meta, serve.Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute})
	post(t, clean, encode(t, tail))
	cleanAlerts := getAlerts(t, clean)
	cleanStanding := keysOf(cleanAlerts.Standing)
	if cleanAlerts.TotalAlerts == 0 {
		t.Fatal("fault-free reference raised no alerts; fixture is degenerate")
	}
	clean.Close()

	// Chaos run: panics in the shard batches, ENOSPC and fsync faults
	// on every persistence write — the ledger's group commits that
	// carry the checkpoints, and the model artifact.
	in := faultinject.New(chaosSeed)
	faultFs := faultinject.NewFs(in, nil)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{FS: faultFs})
	// ShardPanic counts hand-offs (batches), not records: every 7th
	// batch either shard takes off its queue crashes its worker.
	in.Set(faultinject.ShardPanic, faultinject.Plan{Every: 7, Panic: true})
	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC, Every: 4})
	in.Set(faultinject.FsSync, faultinject.Plan{Every: 7})

	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{
		Shards:        2,
		History:       1 << 16,
		Window:        30 * time.Minute,
		SnapshotEvery: 1,
		OnRecord:      rec.Shard,
		Inject:        in,
	})
	defer s.Close()
	ck := NewCheckpointer(s, CheckpointerConfig{
		Ledger: led,
		Dir:    dir,
		Retry:  RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: chaosSeed},
		Logf:   t.Logf,
	})

	healthz := func() (status string, code int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rc := httptest.NewRecorder()
		s.ServeHTTP(rc, req)
		var hz struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(rc.Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status, rc.Code
	}

	// Replay in chunks; between chunks the service must be healthy and
	// a checkpoint must land in the ledger through the faulty
	// filesystem. Each chunk
	// goes in as requests of 250 records — a request hands each shard at
	// most one batch, so this is what puts hundreds of hand-offs (and
	// dozens of panics) into the run.
	const chunks, perPost = 5, 250
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(tail)/chunks, (i+1)*len(tail)/chunks
		for ; lo < hi; lo += perPost {
			post(t, s, encode(t, tail[lo:min(lo+perPost, hi)]))
		}
		if status, code := healthz(); status != "ok" || code != http.StatusOK {
			t.Fatalf("healthz after chunk %d: %q (%d); the chaos run must stay serving", i, status, code)
		}
		if _, err := ck.CheckpointNow(); err != nil {
			t.Fatalf("checkpoint after chunk %d: %v", i, err)
		}
	}

	// Supervised restarts happened on schedule...
	wantRestarts := int64(in.Fires(faultinject.ShardPanic))
	if wantRestarts == 0 {
		t.Fatal("the panic point never fired; the chaos run exercised nothing")
	}
	if got := s.Restarts(); got != wantRestarts {
		t.Fatalf("restarts = %d, injected panics = %d", got, wantRestarts)
	}
	t.Logf("%d injected shard panics over %d hand-offs, all supervised", wantRestarts, in.Hits(faultinject.ShardPanic))

	// ...and were lossless: per-shard alert streams match the
	// fault-free reference exactly.
	chaosAlerts := getAlerts(t, s)
	if chaosAlerts.TotalAlerts != cleanAlerts.TotalAlerts {
		t.Fatalf("chaos run raised %d alerts, fault-free reference %d", chaosAlerts.TotalAlerts, cleanAlerts.TotalAlerts)
	}
	got, want := keysOf(chaosAlerts.Recent), keysOf(cleanAlerts.Recent)
	for shard, wantSeq := range want {
		gotSeq := got[shard]
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("shard %d: %d alerts, reference %d", shard, len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("shard %d alert %d diverged:\n got %+v\nwant %+v", shard, i, gotSeq[i], wantSeq[i])
			}
		}
	}

	// Persistence fought real faults and won: retries were spent and no
	// checkpoint was abandoned.
	if ck.Retries() == 0 {
		t.Fatal("no write retries despite the armed ENOSPC/fsync plans")
	}
	if ck.GiveUps() != 0 || ck.Saves() != chunks {
		t.Fatalf("saves=%d giveups=%d, want %d/0", ck.Saves(), ck.GiveUps(), chunks)
	}

	// The retrained model artifact persists through the same faults.
	rt := NewRetrainer(s, rec, RetrainerConfig{
		MinEvents: 10,
		Dir:       dir,
		FS:        faultFs,
		Retry:     RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: chaosSeed},
		Logf:      t.Logf,
	})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatalf("retrain under fs faults: %v", err)
	}
	if _, err := model.Verify(ModelPath(dir)); err != nil {
		t.Fatalf("model artifact written under faults does not verify: %v", err)
	}
	if got := s.Model(); got.Version != info.Version {
		t.Fatalf("serving model %+v, retrain returned %+v", got, info)
	}

	// Final checkpoint (post-swap) and restore continuity: a fresh
	// server built from the chaos run's checkpoint carries the same
	// standing alarms.
	if _, err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	fresh := serve.New(meta, serve.Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute, Model: serve.ModelInfo{SHA256: info.SHA256}})
	defer fresh.Close()
	restorer := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf})
	if cp, err := restorer.Restore(info.SHA256); err != nil || cp == nil {
		t.Fatalf("restore from the chaos checkpoint: cp=%v err=%v", cp, err)
	}
	freshStanding := keysOf(getAlerts(t, fresh).Standing)
	for shard, wantSeq := range cleanStanding {
		gotSeq := freshStanding[shard]
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("restored shard %d: %d standing alarms, reference %d", shard, len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("restored shard %d standing alarm diverged:\n got %+v\nwant %+v", shard, gotSeq[i], wantSeq[i])
			}
		}
	}

	// Quarantine bound: a separate pass with injected ingest
	// corruption parks exactly the faulted records and serves the
	// rest.
	in2 := faultinject.New(chaosSeed)
	in2.Set(faultinject.IngestCorrupt, faultinject.Plan{Every: 50, Times: 5})
	qs := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, Inject: in2})
	defer qs.Close()
	n := 1000
	if n > len(tail) {
		n = len(tail)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(encode(t, tail[:n]))))
	rc := httptest.NewRecorder()
	qs.ServeHTTP(rc, req)
	if rc.Code != http.StatusOK {
		t.Fatalf("corrupted-ingest status %d: %s", rc.Code, rc.Body.String())
	}
	var resp serve.IngestResponse
	if err := json.Unmarshal(rc.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Quarantined != 5 || resp.Accepted != int64(n-5) {
		t.Fatalf("quarantine accounting = %+v, want exactly 5 of %d parked", resp, n)
	}
	qreq := httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil)
	qrc := httptest.NewRecorder()
	qs.ServeHTTP(qrc, qreq)
	var q serve.QuarantineResponse
	if err := json.Unmarshal(qrc.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 5 {
		t.Fatalf("quarantine total = %d, want 5", q.Total)
	}
}
