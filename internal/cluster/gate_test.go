package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/faultinject"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// fixtureOnce shares one trained meta-learner and held-out tail across
// the package's tests (training dominates test wall time).
var fixtureOnce struct {
	sync.Once
	meta *predictor.Meta
	tail []raslog.Event
	err  error
}

func fixture(t testing.TB) (*predictor.Meta, []raslog.Event) {
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
		fixtureOnce.meta = m
		fixtureOnce.tail = gen.Events[cut:]
	})
	if fixtureOnce.err != nil {
		t.Fatal(fixtureOnce.err)
	}
	return fixtureOnce.meta, fixtureOnce.tail
}

// encode renders events in the pipe dialect.
func encode(t testing.TB, events []raslog.Event) []byte {
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

// hostTransport is a fake http.RoundTripper routing requests by host
// to in-process handlers — the cluster-in-one-process harness. Hosts
// can be marked down (connection refused) or remapped (a backend
// restarting as a new server), all without sockets, so fault
// schedules hit deterministic points in the request stream.
type hostTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
}

func newHostTransport() *hostTransport {
	return &hostTransport{handlers: make(map[string]http.Handler), down: make(map[string]bool)}
}

func (tr *hostTransport) set(host string, h http.Handler) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.handlers[host] = h
}

func (tr *hostTransport) setDown(host string, down bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.down[host] = down
}

func (tr *hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// The RoundTripper contract: the body is always closed, errors
	// included. forward waits for that before it reuses the bytes.
	if req.Body != nil {
		defer req.Body.Close()
	}
	tr.mu.Lock()
	h, ok := tr.handlers[req.URL.Host]
	down := tr.down[req.URL.Host]
	tr.mu.Unlock()
	if !ok || down {
		return nil, fmt.Errorf("dial tcp %s: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// countingBackend wraps a serve.Server and captures every record
// POSTed to its /v1/ingest as a canonical pipe line, so tests can
// assert exactly what the gate delivered, and in what order. The gate
// forwards wire frames only; any other body is refused with 415, which
// the gate sees as a failed forward.
type countingBackend struct {
	srv *serve.Server

	mu    sync.Mutex
	lines []string
}

func (cb *countingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/ingest" {
		if ct := r.Header.Get("Content-Type"); ct != raslog.WireContentType {
			http.Error(w, "gate forwarded "+ct+", not wire frames", http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cb.mu.Lock()
		var enc bytes.Buffer
		d := raslog.NewWireDecoder(bytes.NewReader(body))
		d.OnSkip = func([]byte, error) {} // corrupt records are the server's to count
		for {
			evs, derr := d.ReadFrame()
			if derr != nil {
				break // io.EOF, or corruption the server will also report
			}
			for i := range evs {
				enc.Reset()
				ew := raslog.NewWriter(&enc)
				if ew.Write(&evs[i]) == nil && ew.Flush() == nil {
					cb.lines = append(cb.lines, strings.TrimSuffix(enc.String(), "\n"))
				}
			}
		}
		cb.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	cb.srv.ServeHTTP(w, r)
}

func (cb *countingBackend) delivered() []string {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return append([]string(nil), cb.lines...)
}

// testCluster is the assembled fake-transport harness: a gate over
// two single-shard backends.
type testCluster struct {
	gate      *Gate
	transport *hostTransport
	hosts     []string
	backends  []*countingBackend
	servers   []*serve.Server
}

// newTestCluster builds a 2-backend cluster. Each backend serves one
// shard so a backend is exactly one engine, and carries the given
// model SHA on its health surface.
func newTestCluster(t *testing.T, meta *predictor.Meta, shas []string, inject *faultinject.Injector) *testCluster {
	t.Helper()
	tr := newHostTransport()
	tc := &testCluster{transport: tr}
	for i, sha := range shas {
		host := fmt.Sprintf("b%d.cluster.test", i)
		srv := serve.New(meta, serve.Config{
			Shards:  1,
			History: 1 << 16,
			Window:  30 * time.Minute,
			Model:   serve.ModelInfo{SHA256: sha},
		})
		t.Cleanup(func() { srv.Close() })
		cb := &countingBackend{srv: srv}
		tr.set(host, cb)
		tc.hosts = append(tc.hosts, "http://"+host)
		tc.backends = append(tc.backends, cb)
		tc.servers = append(tc.servers, srv)
	}
	g, err := New(Config{
		Backends: tc.hosts,
		Client:   &http.Client{Transport: tr},
		Inject:   inject,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	tc.gate = g
	return tc
}

// gatePost ingests a body through the gate handler.
func gatePost(t *testing.T, g *Gate, body []byte) IngestResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("gate ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// gateStatus fetches /v1/cluster/status through the gate handler.
func gateStatus(t *testing.T, g *Gate) StatusResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	var resp StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// gateAlerts fetches the merged /v1/alerts through the gate handler.
func gateAlerts(t *testing.T, g *Gate) AlertsResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/alerts", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("merged alerts: %d", rec.Code)
	}
	var resp AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// expectedSplit partitions encoded lines by their ring owner, in
// stream order — what each backend must eventually receive.
func expectedSplit(t *testing.T, g *Gate, events []raslog.Event) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for i := range events {
		owner := g.Ring().Owner(LocationKey(events[i].Location))
		line := strings.TrimSuffix(string(encode(t, events[i:i+1])), "\n")
		out[owner] = append(out[owner], line)
	}
	return out
}

// backendIndex resolves a backend URL to the test cluster's index.
func (tc *testCluster) backendIndex(t *testing.T, url string) int {
	t.Helper()
	for i, h := range tc.hosts {
		if h == url {
			return i
		}
	}
	t.Fatalf("unknown backend %q", url)
	return -1
}

func TestGateRoutesByRing(t *testing.T) {
	meta, tail := fixture(t)
	n := 2000
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	resp := gatePost(t, tc.gate, encode(t, events))
	if resp.Accepted != int64(n) || resp.Routed != int64(n) || resp.Buffered != 0 {
		t.Fatalf("ingest = %+v, want %d routed, 0 buffered", resp, n)
	}

	want := expectedSplit(t, tc.gate, events)
	for i, host := range tc.hosts {
		got := tc.backends[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s received %d lines, ring owns %d", host, len(got), len(want[host]))
		}
		for j := range got {
			if got[j] != want[host][j] {
				t.Fatalf("backend %s line %d:\n got %q\nwant %q", host, j, got[j], want[host][j])
			}
		}
		if len(got) == 0 {
			t.Fatalf("backend %s received nothing; the split is degenerate", host)
		}
	}

	st := gateStatus(t, tc.gate)
	if st.AgreedSHA != "sha-v1" {
		t.Fatalf("agreed SHA %q, want sha-v1", st.AgreedSHA)
	}
	for _, b := range st.Backends {
		if b.State != "up" {
			t.Fatalf("backend %s state %q after a clean run", b.URL, b.State)
		}
	}
}

func TestGateFailoverReplay(t *testing.T) {
	meta, tail := fixture(t)
	n := 3000
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()
	want := expectedSplit(t, tc.gate, events)
	downURL := tc.hosts[1]
	downIdx := 1

	// Phase 1: both up.
	third := n / 3
	r1 := gatePost(t, tc.gate, encode(t, events[:third]))
	if r1.Buffered != 0 {
		t.Fatalf("phase 1 buffered %d lines with both backends up", r1.Buffered)
	}

	// Phase 2: b1 goes down; its lines must park, b0's must flow.
	tc.transport.setDown("b1.cluster.test", true)
	r2 := gatePost(t, tc.gate, encode(t, events[third:2*third]))
	if r2.Buffered == 0 {
		t.Fatal("no lines buffered while a backend was down")
	}
	if r2.Accepted != int64(2*third-third) {
		t.Fatalf("phase 2 accepted %d of %d; an outage must not drop lines", r2.Accepted, third)
	}
	st := gateStatus(t, tc.gate)
	var downStatus *BackendStatus
	for i := range st.Backends {
		if st.Backends[i].URL == downURL {
			downStatus = &st.Backends[i]
		}
	}
	if downStatus == nil || downStatus.State != "down" {
		t.Fatalf("backend %s not marked down: %+v", downURL, st.Backends)
	}
	if downStatus.ReplayBuffered == 0 {
		t.Fatal("down backend shows an empty replay buffer")
	}

	// Phase 3: still down — more lines stack behind the backlog.
	r3 := gatePost(t, tc.gate, encode(t, events[2*third:]))
	if r3.Accepted != int64(n-2*third) {
		t.Fatalf("phase 3 accepted %d of %d", r3.Accepted, n-2*third)
	}

	// Recovery: probe sees it healthy and drains the backlog in order.
	tc.transport.setDown("b1.cluster.test", false)
	tc.gate.ProbeNow()
	st = gateStatus(t, tc.gate)
	for _, b := range st.Backends {
		if b.State != "up" || b.ReplayBuffered != 0 {
			t.Fatalf("after recovery: %+v", b)
		}
		if b.URL == downURL && b.Replayed == 0 {
			t.Fatal("recovered backend shows no replayed lines")
		}
	}

	// The failed-over backend received every line it owns, in order,
	// exactly once — the outage cost latency, not data.
	got := tc.backends[downIdx].delivered()
	if len(got) != len(want[downURL]) {
		t.Fatalf("backend %s received %d lines across the outage, owns %d", downURL, len(got), len(want[downURL]))
	}
	for j := range got {
		if got[j] != want[downURL][j] {
			t.Fatalf("replayed line %d out of order:\n got %q\nwant %q", j, got[j], want[downURL][j])
		}
	}
}

func TestGateVersionSkewRefusesRouting(t *testing.T) {
	meta, tail := fixture(t)
	n := 1000
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	// Two backends disagreeing on the model: the tie resolves to the
	// lexically smaller SHA, and the other backend is refused traffic.
	tc := newTestCluster(t, meta, []string{"sha-aaa", "sha-bbb"}, nil)
	tc.gate.ProbeNow()

	st := gateStatus(t, tc.gate)
	if st.AgreedSHA != "sha-aaa" {
		t.Fatalf("agreed SHA %q, want the lexically smallest on a tie", st.AgreedSHA)
	}
	states := map[string]string{}
	for _, b := range st.Backends {
		states[b.ModelSHA] = b.State
	}
	if states["sha-aaa"] != "up" || states["sha-bbb"] != "skewed" {
		t.Fatalf("states by SHA = %v, want sha-aaa up / sha-bbb skewed", states)
	}

	resp := gatePost(t, tc.gate, encode(t, events))
	if resp.Accepted != int64(n) {
		t.Fatalf("accepted %d of %d under skew", resp.Accepted, n)
	}
	if resp.Buffered == 0 {
		t.Fatal("no lines parked though one backend is skewed (its share must buffer, not route)")
	}
	if got := tc.backends[1].delivered(); len(got) != 0 {
		t.Fatalf("skewed backend received %d lines; the gate must refuse routing to it", len(got))
	}
}

func TestGateRollingReload(t *testing.T) {
	meta, tail := fixture(t)
	n := 500
	if n > len(tail) {
		n = len(tail)
	}
	tc := newTestCluster(t, meta, []string{"sha-aaa", "sha-bbb"}, nil)
	// Rebuild the backends with reload hooks: each swaps the same meta
	// back in under the converged SHA sha-ccc (a label change, so
	// prediction state carries through the swap). The hook closes over
	// the server it reloads, so the servers are built in two steps.
	for i := range tc.servers {
		i := i
		sha := []string{"sha-aaa", "sha-bbb"}[i]
		var srv *serve.Server
		srv = serve.New(meta, serve.Config{
			Shards:  1,
			History: 1 << 16,
			Window:  30 * time.Minute,
			Model:   serve.ModelInfo{SHA256: sha},
			Reload: func() error {
				srv.SwapModel(meta, serve.ModelInfo{SHA256: "sha-ccc"})
				return nil
			},
		})
		t.Cleanup(func() { srv.Close() })
		old := tc.servers[i]
		tc.servers[i] = srv
		tc.backends[i].srv = srv
		old.Close()
	}
	tc.gate.ProbeNow()

	// Pre-reload: skewed cluster (the previous test's scenario).
	if st := gateStatus(t, tc.gate); st.AgreedSHA != "sha-aaa" {
		t.Fatalf("agreed %q before reload", st.AgreedSHA)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil)
	rec := httptest.NewRecorder()
	tc.gate.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("rolling reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var reply struct {
		Swapped []struct {
			URL     string `json:"url"`
			SHA256  string `json:"sha256"`
			Version int64  `json:"version"`
		} `json:"swapped"`
		AgreedSHA string `json:"agreed_sha"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Swapped) != 2 || reply.AgreedSHA != "sha-ccc" {
		t.Fatalf("rolling reload reply %+v, want both backends on sha-ccc", reply)
	}
	for _, s := range reply.Swapped {
		if s.SHA256 != "sha-ccc" || s.Version != 2 {
			t.Fatalf("swapped entry %+v, want sha-ccc version 2", s)
		}
	}
	st := gateStatus(t, tc.gate)
	if st.AgreedSHA != "sha-ccc" || st.Swapping {
		t.Fatalf("post-reload status agreed=%q swapping=%v", st.AgreedSHA, st.Swapping)
	}
	for _, b := range st.Backends {
		if b.State != "up" {
			t.Fatalf("backend %s is %q after a successful roll", b.URL, b.State)
		}
	}

	// Ingest keeps flowing on the new model.
	resp := gatePost(t, tc.gate, encode(t, tail[:n]))
	if resp.Accepted != int64(n) || resp.Buffered != 0 {
		t.Fatalf("post-reload ingest %+v, want %d routed", resp, n)
	}
}

func TestGateRollingReloadAbortsOnFailure(t *testing.T) {
	meta, _ := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	// Second backend (ring-member order) unreachable: the roll must
	// stop there, leaving the survivors' swap recorded.
	tc.transport.setDown("b1.cluster.test", true)
	req := httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil)
	rec := httptest.NewRecorder()
	tc.gate.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatalf("rolling reload succeeded with a backend unreachable: %s", rec.Body.String())
	}
	var reply struct {
		Swapped []any  `json:"swapped"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error == "" || !strings.Contains(reply.Error, "aborted") {
		t.Fatalf("abort reply %+v lacks an aborted error", reply)
	}
	if st := gateStatus(t, tc.gate); st.Swapping {
		t.Fatal("swapping flag stuck after an aborted roll")
	}
}

func TestGatePartialResponseIsDelivered(t *testing.T) {
	meta, tail := fixture(t)
	n := 200
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	in := faultinject.New(1)
	in.Set(faultinject.GateForwardPartial, faultinject.Plan{Every: 1, Times: 1})
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, in)
	tc.gate.ProbeNow()

	resp := gatePost(t, tc.gate, encode(t, events))
	if resp.Accepted != int64(n) || resp.Buffered != 0 {
		t.Fatalf("partial-ack ingest %+v, want all %d routed (200 is the receipt)", resp, n)
	}
	// Exactly once: the backends received every line they own, none
	// twice — a cut acknowledgment must not trigger a replay.
	want := expectedSplit(t, tc.gate, events)
	total := 0
	for i, host := range tc.hosts {
		got := tc.backends[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s: %d lines delivered, owns %d (partial ack double-delivered?)", host, len(got), len(want[host]))
		}
		total += len(got)
	}
	if total != n {
		t.Fatalf("delivered %d of %d", total, n)
	}

	mrec := httptest.NewRecorder()
	tc.gate.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "bglgate_partial_responses_total") {
		t.Fatal("metrics lack bglgate_partial_responses_total")
	}
	var partials int64
	for _, b := range tc.gate.backends {
		partials += b.partials.Load()
	}
	if partials != 1 {
		t.Fatalf("partials counter = %d, want exactly the 1 injected", partials)
	}
}

func TestGateQuarantinesUndecodableLines(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	body := append(encode(t, tail[:10]), []byte("this is not a RAS record\n")...)
	resp := gatePost(t, tc.gate, body)
	if resp.Routed != 10 || resp.Quarantined != 1 {
		t.Fatalf("ingest = %+v, want 10 records routed and the garbage line quarantined", resp)
	}
	total := 0
	for i := range tc.backends {
		total += len(tc.backends[i].delivered())
	}
	if total != 10 {
		t.Fatalf("backends received %d records, want 10 (garbage stops at the gate)", total)
	}
	rec := httptest.NewRecorder()
	tc.gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q serve.QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 1 || len(q.Recent) != 1 || q.Recent[0].Line != 11 || q.Recent[0].Raw != "this is not a RAS record" {
		t.Fatalf("gate quarantine %+v, want the garbage line under the client's line number 11", q)
	}
}

func TestGateHealthzDegradation(t *testing.T) {
	meta, _ := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	healthz := func() (string, int) {
		rec := httptest.NewRecorder()
		tc.gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hz struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status, rec.Code
	}
	if s, c := healthz(); s != "ok" || c != http.StatusOK {
		t.Fatalf("healthy cluster: %q (%d)", s, c)
	}
	tc.transport.setDown("b1.cluster.test", true)
	tc.gate.ProbeNow()
	if s, c := healthz(); s != "degraded" || c != http.StatusOK {
		t.Fatalf("one backend down: %q (%d), want degraded/200", s, c)
	}
	tc.transport.setDown("b0.cluster.test", true)
	tc.gate.ProbeNow()
	if s, c := healthz(); s != "isolated" || c != http.StatusServiceUnavailable {
		t.Fatalf("all backends down: %q (%d), want isolated/503", s, c)
	}
}

func TestMergedAlertDedup(t *testing.T) {
	at := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	mk := func(backend string, seq int64, at time.Time, detail string) Alert {
		return Alert{
			Alert: serve.Alert{
				Seq: seq, At: at, Start: at, End: at.Add(30 * time.Minute),
				Confidence: 0.5, Source: "rule", Detail: detail,
			},
			Backend: backend,
		}
	}
	in := []Alert{
		mk("http://b1", 9, at.Add(time.Minute), "later"),
		mk("http://b0", 1, at, "dup"),
		mk("http://b1", 2, at, "dup"), // same identity, different backend: collapses
		mk("http://b0", 3, at, "other"),
	}
	out := dedupAlerts(in)
	if len(out) != 3 {
		t.Fatalf("dedup kept %d of 4, want 3 (one cross-backend duplicate)", len(out))
	}
	if out[0].Detail != "dup" || out[0].Backend != "http://b0" {
		t.Fatalf("first merged alert %+v, want the lowest-backend dup witness", out[0])
	}
	if out[len(out)-1].Detail != "later" {
		t.Fatalf("merge is not time-ordered: %+v", out)
	}
	// Determinism: shuffled input, identical output.
	shuffled := []Alert{in[3], in[2], in[0], in[1]}
	out2 := dedupAlerts(shuffled)
	for i := range out {
		if CanonicalAlertLine(out[i]) != CanonicalAlertLine(out2[i]) {
			t.Fatalf("merge order depends on arrival order at index %d", i)
		}
	}
}

// TestWrongMethodIs405 holds every gate route to the method its mux
// pattern declares.
func TestWrongMethodIs405(t *testing.T) {
	g, err := New(Config{Backends: []string{"http://b0.cluster.test"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/ingest", "POST"},
		{http.MethodPost, "/v1/quarantine", "GET, HEAD"},
		{http.MethodPost, "/v1/alerts", "GET, HEAD"},
		{http.MethodPost, "/v1/alerts/stream", "GET, HEAD"},
		{http.MethodPost, "/v1/cluster/status", "GET, HEAD"},
		{http.MethodGet, "/v1/model/reload", "POST"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, Allow %q", c.method, c.path, rec.Code, rec.Header().Get("Allow"), c.allow)
		}
	}
}
