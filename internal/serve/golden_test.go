package serve

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/predictor"
)

// maskSamples replaces every sample value of a Prometheus text
// exposition with V, leaving family names, HELP, TYPE, labels and
// family order — the bytes a scrape config and a dashboard depend on.
func maskSamples(body string) string {
	lines := strings.SplitAfter(body, "\n")
	for i, line := range lines {
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 && !strings.HasPrefix(line, "#") {
			lines[i] = line[:sp] + " V\n"
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsGolden pins the /metrics exposition with every optional
// section on (ledger families, an AuxMetrics hook, per-shard vectors).
// testdata/metrics.golden was scraped from the hand-written Fprintf
// exposition that edge.Metrics replaced; a 200 also means the writer
// found no naming-convention error (it answers 500 naming the first).
func TestMetricsGolden(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{
		Shards: 3, Window: 30 * time.Minute, Ledger: openTestLedger(t),
		AuxMetrics: func(m *edge.Metrics) {
			m.Counter("bglserved_checkpoint_saves_total", "Completed shard-state checkpoints.", 7)
		},
	})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics: content type %q", ct)
	}
	path := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := maskSamples(rec.Body.String()); got != string(want) {
		t.Fatalf("exposition drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// readSSE reads a live event stream until it has carried an alert
// frame followed by a heartbeat, and returns the bytes with the
// heartbeats collapsed to the one trailing — what the stream looks
// like when no heartbeat happens to race ahead of the alert.
func readSSE(t *testing.T, body io.Reader) string {
	t.Helper()
	var got strings.Builder
	rd := bufio.NewReader(body)
	for !strings.Contains(got.String(), "data: ") || !strings.HasSuffix(got.String(), ": hb\n\n") {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v after %q", err, got.String())
		}
		got.WriteString(line)
	}
	return strings.ReplaceAll(got.String(), ": hb\n\n", "") + ": hb\n\n"
}

// TestSSEGolden pins the stream's frame bytes against the golden the
// gate's handler is held to as well.
func TestSSEGolden(t *testing.T) {
	meta, _ := fixture(t)
	s := New(meta, Config{Shards: 1, Window: 30 * time.Minute, StreamHeartbeat: 100 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	at := time.Date(2005, 6, 3, 15, 42, 50, 0, time.UTC)
	raise := s.onAlert(0)
	warning := predictor.Warning{At: at, Start: at, End: at.Add(30 * time.Minute), Confidence: 0.75, Source: "rule", Detail: "KERNEL <torus> & \"fatal\""}
	raise(warning) // seq 0, before anyone listens

	resp, err := http.Get(ts.URL + "/v1/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raise(warning) // seq 1: the frame under test

	path := filepath.Join("..", "edge", "testdata", "sse.golden")
	got := readSSE(t, resp.Body)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("SSE frames drifted from %s:\n got:\n%q\nwant:\n%q", path, got, want)
	}
}
