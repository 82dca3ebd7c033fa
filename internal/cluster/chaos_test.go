package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/faultinject"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// clusterChaosSeed fixes every injected-fault schedule in this file;
// the acceptance criterion is byte-equality against a fault-free
// reference, so the whole run must replay identically.
const clusterChaosSeed = 0xC1A05EED

// servePost ingests a body directly into a serve.Server (the
// single-node reference path, no gate in between).
func servePost(t *testing.T, s *serve.Server, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("reference ingest: status %d: %s", rec.Code, rec.Body.String())
	}
}

// ringReference is the fault-free reference a cluster test compares
// against: one single-shard server per ring member, each sent, in
// stream order, the records the ring gives that member, so reference
// i's engine is backend i's. Their alerts come back marked with the
// member they stand for.
func ringReference(t *testing.T, meta *predictor.Meta, ring *Ring, events []raslog.Event) AlertsResponse {
	t.Helper()
	members := ring.Members()
	parts := make([][]raslog.Event, len(members))
	for _, ev := range events {
		i := ring.OwnerIndexLocation(ev.Location)
		parts[i] = append(parts[i], ev)
	}
	var ref AlertsResponse
	for i, member := range members {
		s := serve.New(meta, serve.Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
		servePost(t, s, encode(t, parts[i]))
		resp := serveAlerts(t, s)
		s.Close()
		for _, a := range resp.Recent {
			ref.Recent = append(ref.Recent, Alert{Alert: a, Backend: member})
		}
		for _, a := range resp.Standing {
			ref.Standing = append(ref.Standing, Alert{Alert: a, Backend: member})
		}
	}
	return ref
}

func serveAlerts(t *testing.T, s *serve.Server) serve.AlertsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reference alerts: status %d", rec.Code)
	}
	var resp serve.AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// canonicalJoin is the comparison form: canonically merge-ordered,
// key-deduplicated, backend-independent alert lines joined into one
// string, so two alert streams are equal iff the strings are equal
// byte for byte.
func canonicalJoin(alerts []Alert) string {
	d := dedupAlerts(append([]Alert(nil), alerts...))
	lines := make([]string, len(d))
	for i, a := range d {
		lines[i] = CanonicalAlertLine(a)
	}
	return strings.Join(lines, "\n")
}

// diffStreams fails the test with the first divergence between two
// canonical streams (a raw string compare is the assertion; this is
// the readable autopsy).
func diffStreams(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			t.Fatalf("%s diverges at line %d:\n got %q\nwant %q\n(%d vs %d lines total)", what, i, g[i], w[i], len(g), len(w))
		}
	}
	t.Fatalf("%s: %d lines, reference has %d (first extra: %q)", what, len(g), len(w), func() string {
		if len(g) > len(w) {
			return g[n]
		}
		return w[n]
	}())
}

// TestClusterChaosAcceptance is the PR's acceptance gate: a 2-backend
// cluster is driven through injected forward failures, partial
// responses and flapping probes, one backend is killed mid-run and
// restarted from a lifecycle checkpoint, and the whole cluster is
// rolled to a new model version — and the gate-merged alert stream
// must still equal, byte for byte, what one fault-free single-node
// server partitioned the same way produces. Every schedule derives
// from clusterChaosSeed; the run replays identically.
func TestClusterChaosAcceptance(t *testing.T) {
	meta, tail := fixture(t)
	// The whole held-out tail: failure alerts are rare (that is the
	// paper's point), so a short prefix would make the equality check
	// vacuous.
	n := len(tail)
	events := tail[:n]
	chunks := 7
	bound := func(i int) int { return i * n / chunks }

	in := faultinject.New(clusterChaosSeed)
	in.Set(faultinject.GateForwardDown, faultinject.Plan{Every: 3, After: 3, Times: 3})
	in.Set(faultinject.GateForwardPartial, faultinject.Plan{Every: 4, After: 1, Times: 2})
	in.Set(faultinject.GateProbeFlap, faultinject.Plan{Every: 3, After: 2, Times: 3})

	// Two single-shard backends behind the fake transport. Each carries
	// a reload hook swapping the same meta back in under sha-v2: the
	// rolling swap is then a pure label change, so the post-swap alert
	// stream stays comparable to the unswapped reference.
	tr := newHostTransport()
	hosts := []string{"http://b0.cluster.test", "http://b1.cluster.test"}
	mkServer := func() *serve.Server {
		var srv *serve.Server
		srv = serve.New(meta, serve.Config{
			Shards:  1,
			History: 1 << 16,
			Window:  30 * time.Minute,
			Model:   serve.ModelInfo{SHA256: "sha-v1"},
			Reload: func() error {
				srv.SwapModel(meta, serve.ModelInfo{SHA256: "sha-v2"})
				return nil
			},
		})
		return srv
	}
	srvs := make([]*serve.Server, 2)
	cbs := make([]*countingBackend, 2)
	for i := range srvs {
		srvs[i] = mkServer()
		cbs[i] = &countingBackend{srv: srvs[i]}
		tr.set(strings.TrimPrefix(hosts[i], "http://"), cbs[i])
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})

	g, err := New(Config{
		Backends: hosts,
		Client:   &http.Client{Transport: tr},
		Inject:   in,
		Logf:     t.Logf,
		// The replay window prunes by event time, and a two-chunk outage
		// spans far more than the 1 h default of simulated time; the
		// acceptance criterion is zero loss, so give the buffer room.
		ReplayWindow: 1000 * time.Hour,
		ReplayCap:    1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	// Reference: fault-free servers partitioned exactly as the gate's
	// ring partitions, so reference i is backend i's engine. They see
	// the full stream up front; the cluster must converge to the same
	// alerts no matter what the faults did.
	ring := g.Ring()
	refResp := ringReference(t, meta, ring, events)
	perBackend := map[string]int{}
	for _, a := range refResp.Recent {
		perBackend[a.Backend]++
	}
	if perBackend[hosts[0]] == 0 || perBackend[hosts[1]] == 0 {
		t.Fatalf("degenerate reference: %v alerts per backend; the equality check would be vacuous", perBackend)
	}

	// The gate-side alert stream is accumulated as a union of merged
	// snapshots: serve's recent ring is not part of a lifecycle
	// checkpoint, so a restarted backend forgets its pre-kill alerts —
	// the gate's view across time, not its final view, is what must
	// match the reference.
	seen := make(map[string]bool)
	var acc []Alert
	collect := func() {
		t.Helper()
		ar := gateAlerts(t, g)
		for _, a := range ar.Recent {
			if k := alertKey(a); !seen[k] {
				seen[k] = true
				acc = append(acc, a)
			}
		}
	}
	postChunk := func(i int) {
		t.Helper()
		body := encode(t, events[bound(i):bound(i+1)])
		resp := gatePost(t, g, body)
		if want := int64(bound(i+1) - bound(i)); resp.Accepted != want || resp.Error != "" {
			t.Fatalf("chunk %d: accepted %d of %d (err %q); chaos must not drop lines", i, resp.Accepted, want, resp.Error)
		}
	}
	settle := func(maxRounds int) {
		t.Helper()
		for r := 0; r < maxRounds; r++ {
			g.ProbeNow()
			ok := true
			for _, b := range gateStatus(t, g).Backends {
				if b.State != "up" || b.ReplayBuffered != 0 {
					ok = false
				}
			}
			if ok {
				return
			}
		}
		t.Fatalf("cluster did not settle in %d probe rounds: %+v", maxRounds, gateStatus(t, g).Backends)
	}

	g.ProbeNow() // initial sweep: agree on sha-v1 before traffic

	// Phase 1: chunks 0–1 under fault fire (forward failures, partial
	// acks, flapping probes), probing and collecting between chunks.
	for i := 0; i < 2; i++ {
		postChunk(i)
		g.ProbeNow()
		collect()
	}

	// Kill b1: drain everything owed to it first (checkpoint must cover
	// every delivered line), snapshot its engine state, then cut it off.
	settle(20)
	collect()
	dir := t.TempDir()
	led, _, err := ledger.Open(lifecycle.LedgerPath(dir), ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	ck := lifecycle.NewCheckpointer(srvs[1], lifecycle.CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf})
	if _, err := ck.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint before the kill: %v", err)
	}
	tr.setDown("b1.cluster.test", true)
	srvs[1].Close()

	// Phase 2: chunks 2–3 with b1 dead. Its share parks in the replay
	// buffer; b0 (fault fire permitting) keeps flowing.
	for i := 2; i < 4; i++ {
		postChunk(i)
		g.ProbeNow()
		collect()
	}
	midStatus := gateStatus(t, g)
	if b1 := midStatus.Backends[1]; b1.State != "down" || b1.ReplayBuffered == 0 {
		t.Fatalf("mid-outage b1 = %+v, want down with a parked backlog", b1)
	}

	// Restart b1 from the checkpoint — a fresh process in real life, a
	// fresh server here — and put it back on the wire. The gate's next
	// sweep drains the backlog into it, in order.
	fresh := mkServer()
	cp, err := lifecycle.NewCheckpointer(fresh, lifecycle.CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore("sha-v1")
	if err != nil || cp == nil {
		t.Fatalf("restore from checkpoint: cp=%v err=%v", cp, err)
	}
	srvs[1] = fresh
	cbs[1].srv = fresh
	tr.setDown("b1.cluster.test", false)

	// Phase 3: chunks 4–5 across the recovery.
	for i := 4; i < 6; i++ {
		postChunk(i)
		g.ProbeNow()
		collect()
	}

	// Every fault point must actually have fired, or the run proved
	// nothing. Disarm them for the controlled finale.
	for _, p := range []faultinject.Point{faultinject.GateForwardDown, faultinject.GateForwardPartial, faultinject.GateProbeFlap} {
		if in.Fires(p) == 0 {
			t.Fatalf("fault point %s never fired (hits %d); retune the schedule", p, in.Hits(p))
		}
		t.Logf("fault %s: %d fires in %d hits", p, in.Fires(p), in.Hits(p))
		in.Set(p, faultinject.Plan{After: math.MaxInt}) // disarm: a plan that never fires
	}
	settle(20)
	collect()

	// Rolling reload: both backends must come out on sha-v2 with the
	// cluster agreed, and ingest must keep flowing afterwards.
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("rolling reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var reload struct {
		Swapped []struct {
			URL    string `json:"url"`
			SHA256 string `json:"sha256"`
		} `json:"swapped"`
		AgreedSHA string `json:"agreed_sha"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reload); err != nil {
		t.Fatal(err)
	}
	if len(reload.Swapped) != 2 || reload.AgreedSHA != "sha-v2" {
		t.Fatalf("rolling reload reply %+v, want both backends on sha-v2", reload)
	}
	for _, s := range reload.Swapped {
		if s.SHA256 != "sha-v2" {
			t.Fatalf("backend %s swapped to %q, want sha-v2", s.URL, s.SHA256)
		}
	}

	// Finale: the last chunk rides the new model version.
	postChunk(6)
	settle(5)
	collect()

	// Acceptance #1: the union of the gate's merged alert snapshots
	// equals the fault-free reference stream, byte for byte.
	gotStream, wantStream := canonicalJoin(acc), canonicalJoin(refResp.Recent)
	if gotStream != wantStream {
		diffStreams(t, "merged alert stream", gotStream, wantStream)
	}
	t.Logf("merged stream equals reference: %d canonical alerts", len(strings.Split(wantStream, "\n")))

	// Acceptance #2: standing alarms agree too (the restored backend
	// carries its alarm through the checkpoint).
	final := gateAlerts(t, g)
	if got, want := canonicalJoin(final.Standing), canonicalJoin(refResp.Standing); got != want {
		diffStreams(t, "standing alarms", got, want)
	}

	// Acceptance #3: every backend received exactly the lines the ring
	// assigns it, in stream order, exactly once — across the outage,
	// the partial acks and the injected forward failures.
	want := expectedSplit(t, g, events)
	for i, host := range hosts {
		got := cbs[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s received %d lines, owns %d (lost or doubled under chaos)", host, len(got), len(want[host]))
		}
		for j := range got {
			if got[j] != want[host][j] {
				t.Fatalf("backend %s line %d out of order:\n got %q\nwant %q", host, j, got[j], want[host][j])
			}
		}
	}

	// The run must have exercised the failover machinery, not tiptoed
	// around it.
	st := gateStatus(t, g)
	var replayed, rerouted int64
	for _, b := range st.Backends {
		replayed += b.Replayed
		rerouted += b.Rerouted
	}
	if replayed == 0 || rerouted == 0 {
		t.Fatalf("replayed=%d rerouted=%d; the chaos run never used the replay path", replayed, rerouted)
	}
	if st.AgreedSHA != "sha-v2" {
		t.Fatalf("final agreed SHA %q, want sha-v2", st.AgreedSHA)
	}
}

// sseCollector reads a live gate SSE stream into a slice.
type sseCollector struct {
	mu        sync.Mutex
	alerts    []Alert
	connected chan struct{}
}

func (c *sseCollector) run(body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "alert" && data != "" {
				var a Alert
				if json.Unmarshal([]byte(data), &a) == nil {
					c.mu.Lock()
					c.alerts = append(c.alerts, a)
					c.mu.Unlock()
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, ": connected"):
			select {
			case <-c.connected:
			default:
				close(c.connected)
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
}

func (c *sseCollector) snapshot() []Alert {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Alert(nil), c.alerts...)
}

// TestClusterSmokeRealHTTP is the CI smoke job: real listeners, the
// gate's background loops running, a live SSE client — the parts the
// fake-transport tests cannot exercise (the recorder cannot stream).
// It drives traffic through a 2-backend cluster over TCP and checks
// that the fan-in SSE stream delivers every alert the backends raised
// and that the merged read path equals a reference partitioned by the
// same ring.
func TestClusterSmokeRealHTTP(t *testing.T) {
	meta, tail := fixture(t)
	n := len(tail) // alerts are sparse; the full tail keeps the run non-vacuous
	events := tail[:n]

	mkServer := func() *serve.Server {
		return serve.New(meta, serve.Config{
			Shards:  1,
			History: 1 << 16,
			Window:  30 * time.Minute,
			Model:   serve.ModelInfo{SHA256: "sha-v1"},
		})
	}
	s0, s1 := mkServer(), mkServer()
	t.Cleanup(func() { s0.Close(); s1.Close() })
	ts0, ts1 := httptest.NewServer(s0), httptest.NewServer(s1)
	t.Cleanup(func() { ts0.Close(); ts1.Close() })

	g, err := New(Config{
		Backends:      []string{ts0.URL, ts1.URL},
		ProbeInterval: 50 * time.Millisecond,
		StreamRetry:   50 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.ProbeNow()
	g.Start()
	t.Cleanup(func() { g.Close() })
	gts := httptest.NewServer(g)
	t.Cleanup(func() { gts.Close() })

	// Wait for the gate's fan-in loops to hold both backend streams:
	// alerts published after that point are guaranteed to reach the
	// merged stream.
	deadline := time.Now().Add(10 * time.Second)
	for g.streamsUp.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fan-in subscriptions: %d of 2 after 10s", g.streamsUp.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A live SSE client on the gate, attached before any traffic.
	sresp, err := http.Get(gts.URL + "/v1/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sresp.Body.Close() })
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	col := &sseCollector{connected: make(chan struct{})}
	go col.run(sresp.Body)
	select {
	case <-col.connected:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE client never saw the connected comment")
	}

	// Drive the full slice through the gate over real TCP.
	body := encode(t, events)
	presp, err := http.Post(gts.URL+"/v1/ingest", "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("gate ingest over TCP: %s: %s", presp.Status, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != int64(n) || ir.Buffered != 0 {
		t.Fatalf("ingest = %+v, want all %d routed", ir, n)
	}

	// Ground truth straight from the backends.
	fetchJSON := func(url string, v any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var ar0, ar1 serve.AlertsResponse
	fetchJSON(ts0.URL+"/v1/alerts", &ar0)
	fetchJSON(ts1.URL+"/v1/alerts", &ar1)
	wantStream := len(ar0.Recent) + len(ar1.Recent)
	if wantStream == 0 {
		t.Fatal("backends raised no alerts; the smoke run is vacuous")
	}

	// The SSE fan-in must deliver every one of them.
	deadline = time.Now().Add(15 * time.Second)
	for {
		if got := len(col.snapshot()); got >= wantStream {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SSE fan-in delivered %d of %d alerts", len(col.snapshot()), wantStream)
		}
		time.Sleep(20 * time.Millisecond)
	}
	streamed := col.snapshot()
	if len(streamed) != wantStream {
		t.Fatalf("SSE fan-in delivered %d alerts, backends raised %d", len(streamed), wantStream)
	}

	// Merged read path equals a single-node reference partitioned by
	// the same ring — and equals what was streamed.
	var merged AlertsResponse
	fetchJSON(gts.URL+"/v1/alerts", &merged)
	wantJoin := canonicalJoin(ringReference(t, meta, g.Ring(), events).Recent)
	if got := canonicalJoin(merged.Recent); got != wantJoin {
		diffStreams(t, "merged alerts over TCP", got, wantJoin)
	}
	if got := canonicalJoin(streamed); got != wantJoin {
		diffStreams(t, "SSE-streamed alerts", got, wantJoin)
	}

	var st StatusResponse
	fetchJSON(gts.URL+"/v1/cluster/status", &st)
	if st.AgreedSHA != "sha-v1" || len(st.Backends) != 2 {
		t.Fatalf("cluster status %+v", st)
	}
	for _, b := range st.Backends {
		if b.State != "up" {
			t.Fatalf("backend %s is %q after a clean smoke run", b.URL, b.State)
		}
	}

	// The gate's own metrics surface must be serving.
	mresp, err := http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, fam := range []string{"bglgate_routed_total", "bglgate_backend_up", "bglgate_stream_subscriptions"} {
		if !strings.Contains(string(mdata), fam) {
			t.Fatalf("metrics lack %s", fam)
		}
	}
}

// TestClusterChaosWireAcceptance re-runs the chaos acceptance shape
// over the binary wire: the same fault schedule fires against
// pass-through forwards of wire sub-frames, one backend goes dark for
// two chunks, and the merged alert stream and per-backend delivery
// split must still equal the fault-free single-node reference byte
// for byte. The kill/restart/reload legs stay in the text test — they
// are format-independent; this variant pins that the wire path's
// routing, replay and partial-ack handling lose and reorder nothing.
func TestClusterChaosWireAcceptance(t *testing.T) {
	meta, tail := fixture(t)
	n := len(tail)
	events := tail[:n]
	chunks := 7
	bound := func(i int) int { return i * n / chunks }

	in := faultinject.New(clusterChaosSeed)
	in.Set(faultinject.GateForwardDown, faultinject.Plan{Every: 3, After: 3, Times: 3})
	in.Set(faultinject.GateForwardPartial, faultinject.Plan{Every: 4, After: 1, Times: 2})

	tr := newHostTransport()
	hosts := []string{"http://b0.cluster.test", "http://b1.cluster.test"}
	srvs := make([]*serve.Server, 2)
	cbs := make([]*countingBackend, 2)
	for i := range srvs {
		srvs[i] = serve.New(meta, serve.Config{
			Shards:  1,
			History: 1 << 16,
			Window:  30 * time.Minute,
			Model:   serve.ModelInfo{SHA256: "sha-v1"},
		})
		cbs[i] = &countingBackend{srv: srvs[i]}
		tr.set(strings.TrimPrefix(hosts[i], "http://"), cbs[i])
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	g, err := New(Config{
		Backends:     hosts,
		Client:       &http.Client{Transport: tr},
		Inject:       in,
		Logf:         t.Logf,
		ReplayWindow: 1000 * time.Hour,
		ReplayCap:    1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	refResp := ringReference(t, meta, g.Ring(), events)
	if len(refResp.Recent) == 0 {
		t.Fatal("reference raised no alerts; the wire chaos run is vacuous")
	}

	postWireChunk := func(i int) {
		t.Helper()
		var buf bytes.Buffer
		w := raslog.NewWireWriter(&buf)
		for j := bound(i); j < bound(i+1); j++ {
			if err := w.Write(&events[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", &buf)
		req.Header.Set("Content-Type", raslog.WireContentType)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("wire chunk %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := int64(bound(i+1) - bound(i)); resp.Accepted != want || resp.Error != "" {
			t.Fatalf("wire chunk %d: accepted %d of %d (err %q); chaos must not drop records", i, resp.Accepted, want, resp.Error)
		}
	}
	settle := func(maxRounds int) {
		t.Helper()
		for r := 0; r < maxRounds; r++ {
			g.ProbeNow()
			ok := true
			for _, b := range gateStatus(t, g).Backends {
				if b.State != "up" || b.ReplayBuffered != 0 {
					ok = false
				}
			}
			if ok {
				return
			}
		}
		t.Fatalf("cluster did not settle in %d probe rounds: %+v", maxRounds, gateStatus(t, g).Backends)
	}

	g.ProbeNow()
	for i := 0; i < 2; i++ {
		postWireChunk(i)
		g.ProbeNow()
	}
	settle(20)

	// Outage: b1 dark for two chunks, its wire sub-frames park.
	tr.setDown("b1.cluster.test", true)
	for i := 2; i < 4; i++ {
		postWireChunk(i)
		g.ProbeNow()
	}
	if b1 := gateStatus(t, g).Backends[1]; b1.State != "down" || b1.ReplayBuffered == 0 {
		t.Fatalf("mid-outage b1 = %+v, want down with a parked backlog", b1)
	}
	tr.setDown("b1.cluster.test", false)
	for i := 4; i < chunks; i++ {
		postWireChunk(i)
		g.ProbeNow()
	}
	for _, p := range []faultinject.Point{faultinject.GateForwardDown, faultinject.GateForwardPartial} {
		if in.Fires(p) == 0 {
			t.Fatalf("fault point %s never fired (hits %d); retune the schedule", p, in.Hits(p))
		}
		t.Logf("fault %s: %d fires in %d hits", p, in.Fires(p), in.Hits(p))
		in.Set(p, faultinject.Plan{After: math.MaxInt}) // disarm: a plan that never fires
	}
	settle(20)

	// Acceptance #1: gate-merged alerts equal the fault-free reference.
	final := gateAlerts(t, g)
	gotStream, wantStream := canonicalJoin(final.Recent), canonicalJoin(refResp.Recent)
	if gotStream != wantStream {
		diffStreams(t, "wire merged alert stream", gotStream, wantStream)
	}

	// Acceptance #2: every backend received exactly the records the
	// ring assigns it, in order, exactly once — decoded from wire
	// bodies back to canonical lines by the capture layer.
	want := expectedSplit(t, g, events)
	for i, host := range hosts {
		got := cbs[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s received %d records, owns %d (lost or doubled under chaos)", host, len(got), len(want[host]))
		}
		for j := range got {
			if got[j] != want[host][j] {
				t.Fatalf("backend %s record %d out of order:\n got %q\nwant %q", host, j, got[j], want[host][j])
			}
		}
	}

	st := gateStatus(t, g)
	var replayed, rerouted int64
	for _, b := range st.Backends {
		replayed += b.Replayed
		rerouted += b.Rerouted
	}
	if replayed == 0 || rerouted == 0 {
		t.Fatalf("replayed=%d rerouted=%d; the wire chaos run never used the replay path", replayed, rerouted)
	}
}
