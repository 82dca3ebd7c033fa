package cluster

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

	"bglpred/internal/serve"
)

// maskSamples replaces every sample value of a Prometheus text
// exposition with V, leaving family names, HELP, TYPE, labels and
// family order.
func maskSamples(body string) string {
	lines := strings.SplitAfter(body, "\n")
	for i, line := range lines {
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 && !strings.HasPrefix(line, "#") {
			lines[i] = line[:sp] + " V\n"
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsGolden pins the gate's /metrics exposition over two
// backends. testdata/metrics.golden was scraped from the hand-written
// Fprintf exposition that edge.Metrics replaced; a 200 also means the
// writer found no naming-convention error (it answers 500 naming the
// first).
func TestMetricsGolden(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-a", "sha-a"}, nil)
	gatePost(t, tc.gate, encode(t, tail[:500]))

	rec := httptest.NewRecorder()
	tc.gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
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
// heartbeats collapsed to the one trailing.
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

// TestSSEGolden holds the gate's merged stream to the golden the
// serve-layer handler is pinned by: same frames, the gate's own event
// id, and the backend of origin appended to the alert JSON.
func TestSSEGolden(t *testing.T) {
	g, err := New(Config{Backends: []string{"http://b0.cluster.test"}, StreamHeartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	at := time.Date(2005, 6, 3, 15, 42, 50, 0, time.UTC)
	g.broker.Publish(Alert{Backend: "http://b0.cluster.test", Alert: serve.Alert{
		Seq: 1, At: at, Start: at, End: at.Add(30 * time.Minute), Confidence: 0.75, Source: "rule", Detail: "KERNEL <torus> & \"fatal\"",
	}})

	got := strings.Replace(readSSE(t, resp.Body), `,"backend":"http://b0.cluster.test"}`, "}", 1)
	path := filepath.Join("..", "edge", "testdata", "sse.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("SSE frames drifted from %s:\n got:\n%q\nwant:\n%q", path, got, want)
	}
}
