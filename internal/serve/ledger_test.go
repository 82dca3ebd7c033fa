package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bglpred/internal/ledger"
)

func openTestLedger(t *testing.T) *ledger.Ledger {
	t.Helper()
	led, _, err := ledger.Open(filepath.Join(t.TempDir(), "audit.bgll"), ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	return led
}

func TestLedgerChainsIngestAndAlerts(t *testing.T) {
	meta, tail := fixture(t)
	led := openTestLedger(t)
	s := New(meta, Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute, Ledger: led})
	defer s.Close()

	body := encode(t, tail)
	resp := post(t, s, body)
	if resp.Accepted != int64(len(tail)) {
		t.Fatalf("accepted %d of %d", resp.Accepted, len(tail))
	}

	// The acknowledged batch is in the ledger, with the digest of the
	// exact bytes posted.
	seq, ok := led.LastSeqOf(ledger.KindIngest)
	if !ok {
		t.Fatal("no ingest-batch entry after an acknowledged ingest")
	}
	_, payload, err := led.Payload(seq)
	if err != nil {
		t.Fatal(err)
	}
	var rec ingestLedgerRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	wantSHA := sha256.Sum256(body)
	if rec.SHA256 != hex.EncodeToString(wantSHA[:]) {
		t.Fatalf("ledgered batch digest %s, posted bytes hash %s", rec.SHA256, hex.EncodeToString(wantSHA[:]))
	}
	if rec.Accepted != resp.Accepted || rec.Bytes != int64(len(body)) {
		t.Fatalf("ledgered %+v, response %+v over %d bytes", rec, resp, len(body))
	}

	// Alerts were raised over the failure-rich tail, and each is in the
	// ledger too (alert appends ride the shard batches, which have all
	// run when an ingest replies).
	alerts := getAlerts(t, s)
	if alerts.TotalAlerts == 0 {
		t.Fatal("no alerts over a failure-rich tail")
	}
	var ledgered int64
	for i := uint64(0); ; i++ {
		e, err := led.Entry(i)
		if err != nil {
			break
		}
		if e.Kind == ledger.KindAlert {
			ledgered++
		}
	}
	if ledgered != alerts.TotalAlerts {
		t.Fatalf("%d alerts ledgered, %d emitted", ledgered, alerts.TotalAlerts)
	}

	// /v1/proofs with no seq: the head. With seq: a proof that verifies
	// client-side from the response body alone.
	recd := httptest.NewRecorder()
	s.ServeHTTP(recd, httptest.NewRequest(http.MethodGet, "/v1/proofs", nil))
	var head ProofsHead
	if err := json.Unmarshal(recd.Body.Bytes(), &head); err != nil {
		t.Fatalf("proofs head: %v: %s", err, recd.Body.String())
	}
	hseq, hroot := led.Head()
	if head.Seq != hseq || head.Root != hroot {
		t.Fatalf("proofs head %+v, ledger head (%d, %s)", head, hseq, hroot)
	}

	recd = httptest.NewRecorder()
	s.ServeHTTP(recd, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/proofs?seq=%d", seq), nil))
	if recd.Code != http.StatusOK {
		t.Fatalf("proof of seq %d: status %d: %s", seq, recd.Code, recd.Body.String())
	}
	var proof ledger.Proof
	if err := json.Unmarshal(recd.Body.Bytes(), &proof); err != nil {
		t.Fatal(err)
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("served proof does not verify: %v", err)
	}

	recd = httptest.NewRecorder()
	s.ServeHTTP(recd, httptest.NewRequest(http.MethodGet, "/v1/proofs?seq=999999", nil))
	if recd.Code != http.StatusNotFound {
		t.Fatalf("proof of absent entry: status %d, want 404", recd.Code)
	}

	// /healthz reports the ledger head alongside liveness.
	recd = httptest.NewRecorder()
	s.ServeHTTP(recd, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz map[string]any
	if err := json.Unmarshal(recd.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["ledger_root"] != hroot {
		t.Fatalf("healthz ledger_root %v, want %s", hz["ledger_root"], hroot)
	}
	if uint64(hz["ledger_seq"].(float64)) != hseq {
		t.Fatalf("healthz ledger_seq %v, want %d", hz["ledger_seq"], hseq)
	}

	// /metrics exposes both the server's append counters and the
	// ledger's own families.
	recd = httptest.NewRecorder()
	s.ServeHTTP(recd, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"bglserved_ledger_appends_total",
		"bglserved_ledger_append_failures_total 0",
		"bglledger_entries_total",
		"bglledger_commits_total",
		"bglledger_seq",
	} {
		if !strings.Contains(recd.Body.String(), want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

func TestProofsWithoutLedger(t *testing.T) {
	meta, _ := fixture(t)
	s := New(meta, Config{Shards: 1, History: 16, Window: 30 * time.Minute})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/proofs", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("proofs without a ledger: status %d, want 404", rec.Code)
	}
}

func TestQuarantineReportsDropped(t *testing.T) {
	meta, _ := fixture(t)
	s := New(meta, Config{Shards: 1, History: 16, Window: 30 * time.Minute, QuarantineCap: 2})
	defer s.Close()

	var junk strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&junk, "not a ras record %d\n", i)
	}
	resp := post(t, s, []byte(junk.String()))
	if resp.Quarantined != 5 {
		t.Fatalf("quarantined %d of 5 junk lines", resp.Quarantined)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 5 || len(q.Recent) != 2 {
		t.Fatalf("quarantine total %d recent %d, want 5/2", q.Total, len(q.Recent))
	}
	if q.Dropped != 3 {
		t.Fatalf("quarantine dropped %d, want 3 (5 records through a 2-slot ring)", q.Dropped)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "bglserved_quarantine_dropped_total 3") {
		t.Fatal("metrics missing bglserved_quarantine_dropped_total 3")
	}
}
