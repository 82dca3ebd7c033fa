package lifecycle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// TestRepostedBodyChangesOnlyDuplicate: a body the server accepted,
// posted again — to the server that took it, and to one restored from
// its checkpoint — raises no alert, moves no recorder gauge, rejects
// nothing and leaves every engine's state as it was but for its
// Duplicate counter, which /metrics shows. Every record of the body is
// stamped with the newest time, so the engines tell it from new
// records by identity alone.
func TestRepostedBodyChangesOnlyDuplicate(t *testing.T) {
	meta, art, tail := fixture(t)
	dir := t.TempDir()
	mi, err := art.Save(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	end := len(tail) / 2 // past the end of a second holding records on both shards
	for !onBothShards(tail, end) {
		end++
	}
	start := end - 1
	for tail[start-1].Time.Equal(tail[end-1].Time) {
		start--
	}
	rec := NewRecorder(2000*time.Hour, 0)
	cfg := serve.Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute, Model: serve.ModelInfo{SHA256: mi.SHA256}, OnRecord: rec.Shard}
	s := serve.New(meta, cfg)
	defer s.Close()
	post(t, s, encode(t, tail[:start]))
	body := encode(t, tail[start:end])
	post(t, s, body)

	repost := func(s *serve.Server) {
		t.Helper()
		alerts, states := getAlerts(t, s), s.ExportShards()
		gauges := [3]int64{int64(rec.Len()), int64(rec.Unique()), rec.Seen()}
		r := ingest(s, body)
		var reply serve.IngestResponse
		if err := json.Unmarshal(r.Body.Bytes(), &reply); err != nil || r.Code != http.StatusOK {
			t.Fatalf("re-post: status %d: %s", r.Code, r.Body.String())
		}
		if reply.RejectedTotal != 0 {
			t.Fatalf("re-post rejected %d records", reply.RejectedTotal)
		}
		after, dup := s.ExportShards(), int64(0)
		for i := range after {
			dup += after[i].Counters.Duplicate - states[i].Counters.Duplicate
			after[i].Counters.Duplicate = states[i].Counters.Duplicate
		}
		if dup != int64(end-start) {
			t.Fatalf("the re-post counted %d duplicates, want the body's %d records", dup, end-start)
		}
		if !reflect.DeepEqual(after, states) {
			t.Fatal("the re-post moved an engine's state beyond its Duplicate counter")
		}
		if got := getAlerts(t, s); !reflect.DeepEqual(got, alerts) {
			t.Fatalf("the re-post moved the alerts: %d total, was %d", got.TotalAlerts, alerts.TotalAlerts)
		}
		if got := [3]int64{int64(rec.Len()), int64(rec.Unique()), rec.Seen()}; got != gauges {
			t.Fatalf("the re-post moved the recorder's Len, Unique and Seen: %v, was %v", got, gauges)
		}
		scrape := httptest.NewRecorder()
		s.ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var shown int64
		for _, line := range strings.Split(scrape.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "bglserved_duplicate_total "); ok {
				fmt.Sscan(v, &shown)
			}
		}
		want := int64(0)
		for _, st := range s.ExportShards() {
			want += st.Counters.Duplicate
		}
		if shown != want {
			t.Fatalf("/metrics shows %d duplicates, the engines count %d", shown, want)
		}
	}
	repost(s)

	led := openTestLedger(t, dir, ledger.Config{})
	if _, err := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	restored := serve.New(meta, cfg)
	defer restored.Close()
	if cp, err := NewCheckpointer(restored, CheckpointerConfig{Ledger: led, Dir: dir}).Restore(mi.SHA256); err != nil || cp == nil {
		t.Fatalf("restore: %v, %v", cp, err)
	}
	repost(restored)
}

// onBothShards reports whether records[:end] ends a second that holds
// records for both shards of a two-shard server, which routes by
// midplane.
func onBothShards(records []raslog.Event, end int) bool {
	last := records[end-1].Time
	if records[end].Time.Equal(last) {
		return false
	}
	var seen [2]bool
	for i := end - 1; i >= 0 && records[i].Time.Equal(last); i-- {
		seen[records[i].Location.Midplane%2] = true
	}
	return seen[0] && seen[1]
}
