package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// fixtureOnce shares one trained meta-learner and held-out tail across
// the package's tests (training dominates test wall time).
var fixtureOnce struct {
	sync.Once
	meta *predictor.Meta
	tail []raslog.Event
	err  error
}

func fixture(t *testing.T) (*predictor.Meta, []raslog.Event) {
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

// post ingests a body directly through the handler (no network).
func post(t *testing.T, s *Server, body []byte) IngestResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// getAlerts fetches /v1/alerts through the handler.
func getAlerts(t *testing.T, s *Server) AlertsResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/alerts", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("alerts: status %d", rec.Code)
	}
	var resp AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEndToEndMatchesLibraryPath(t *testing.T) {
	meta, tail := fixture(t)

	// Library path: one engine driven directly.
	var direct []predictor.Warning
	eng := online.New(meta, online.Config{
		Window:  30 * time.Minute,
		OnAlert: func(w predictor.Warning) { direct = append(direct, w) },
	})
	for i := range tail {
		if _, err := eng.Ingest(&tail[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(direct) == 0 {
		t.Fatal("library path raised no alerts over a failure-rich tail")
	}

	// Served path: one shard is the single engine, so the alert stream
	// must match the library path exactly.
	s := New(meta, Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()
	// Several requests, to cross request boundaries mid-stream.
	third := len(tail) / 3
	for _, chunk := range [][]raslog.Event{tail[:third], tail[third : 2*third], tail[2*third:]} {
		resp := post(t, s, encode(t, chunk))
		if resp.Accepted != int64(len(chunk)) {
			t.Fatalf("accepted %d of %d", resp.Accepted, len(chunk))
		}
	}

	got := getAlerts(t, s)
	if got.TotalAlerts != int64(len(direct)) {
		t.Fatalf("served %d alerts, library path raised %d", got.TotalAlerts, len(direct))
	}
	if len(got.Recent) != len(direct) {
		t.Fatalf("ring holds %d of %d alerts", len(got.Recent), len(direct))
	}
	for i, a := range got.Recent {
		w := direct[i]
		if !a.At.Equal(w.At) || a.Source != w.Source || !a.End.Equal(w.End) || a.Confidence != w.Confidence {
			t.Fatalf("alert %d mismatch:\n got %+v\nwant %+v", i, a, w)
		}
	}

	// Engine counters must agree too.
	snap := s.shards[0].engine().Snapshot()
	want := eng.Snapshot()
	if snap.Counters != want.Counters {
		t.Fatalf("served counters %+v, library %+v", snap.Counters, want.Counters)
	}
}

func TestShardedIngestFansOut(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 4, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()

	resp := post(t, s, encode(t, tail))
	if resp.Accepted != int64(len(tail)) {
		t.Fatalf("accepted %d of %d", resp.Accepted, len(tail))
	}
	if resp.RejectedTotal != 0 {
		t.Fatalf("%d records rejected: per-shard substreams should stay in order", resp.RejectedTotal)
	}
	var sum int64
	busy := 0
	for _, sh := range s.shards {
		n := sh.engine().Snapshot().Ingested
		sum += n
		if n > 0 {
			busy++
		}
	}
	if sum != int64(len(tail)) {
		t.Fatalf("shards ingested %d of %d", sum, len(tail))
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 shards saw traffic; routing looks degenerate", busy)
	}
	if got := getAlerts(t, s); got.TotalAlerts == 0 {
		t.Fatal("no alerts over a failure-rich tail")
	}
}

// TestIngestQuarantinesNDJSON: the text door reads one spelling, the
// pipe dialect. NDJSON objects spliced between pipe records are
// undecodable lines: each is quarantined under its own line number, and
// every pipe record around them is accepted.
func TestIngestQuarantinesNDJSON(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()

	n := min(200, len(tail))
	var body bytes.Buffer
	var objects []string
	var objectLines []int64
	line := int64(0)
	for i := 0; i < n; i++ {
		body.Write(encode(t, tail[i:i+1]))
		line++
		if i%40 != 7 {
			continue
		}
		e := &tail[i]
		obj := fmt.Sprintf(`{"recid":%d,"type":%q,"time":%q,"jobid":%d,"location":%q,"facility":%q,"severity":%q,"entry_data":%q}`,
			e.RecID, e.Type, e.Time.UTC().Format("2006-01-02 15:04:05"), e.JobID, e.Location.String(), e.Facility, e.Severity.String(), e.EntryData)
		body.WriteString(obj + "\n")
		line++
		objects, objectLines = append(objects, obj), append(objectLines, line)
	}
	resp := post(t, s, body.Bytes())
	if resp.Accepted != int64(n) || resp.Quarantined != int64(len(objects)) {
		t.Fatalf("accepted %d, quarantined %d; want all %d pipe records and the %d NDJSON lines", resp.Accepted, resp.Quarantined, n, len(objects))
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != int64(len(objects)) || len(q.Recent) != len(objects) {
		t.Fatalf("quarantine holds %d (total %d), want the %d NDJSON lines", len(q.Recent), q.Total, len(objects))
	}
	for i, r := range q.Recent {
		if r.Line != objectLines[i] || r.Raw != objects[i][:min(len(objects[i]), rawSnippet)] || r.Cause == "" {
			t.Fatalf("quarantined %d: line %d %q (%s); want line %d %q", i, r.Line, r.Raw, r.Cause, objectLines[i], objects[i])
		}
	}
}

func TestIngestParseErrorQuarantines(t *testing.T) {
	// A malformed line no longer fails the batch: it lands in the
	// quarantine ring, and every decodable record around it is served.
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()

	body := append(encode(t, tail[:5]), []byte("this is not a record\n")...)
	body = append(body, encode(t, tail[5:10])...)
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.Bytes())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 10 || resp.Quarantined != 1 || resp.Error != "" {
		t.Fatalf("resp = %+v; want 10 accepted, 1 quarantined, records after the bad line still landing", resp)
	}

	qreq := httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil)
	qrec := httptest.NewRecorder()
	s.ServeHTTP(qrec, qreq)
	var q QuarantineResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 1 || len(q.Recent) != 1 {
		t.Fatalf("quarantine = %+v, want exactly the one bad line", q)
	}
	if q.Recent[0].Line != 6 {
		t.Fatalf("quarantined line number = %d, want 6", q.Recent[0].Line)
	}
	if !strings.Contains(q.Recent[0].Raw, "this is not a record") {
		t.Fatalf("quarantined raw = %q, want the offending text", q.Recent[0].Raw)
	}
	if q.Recent[0].Cause == "" {
		t.Fatal("quarantined record has no cause")
	}
}

// postConcurrently posts every body at once, one goroutine each, and
// requires each reply to accept all of its records and the engines to
// have seen every one of them, ingested or rejected as out of order: a
// busy shard makes a request wait, never lose records or deadlock.
func postConcurrently(t *testing.T, s *Server, bodies [][]raslog.Event) {
	t.Helper()
	seen := func() (n int64) {
		for _, sh := range s.shards {
			n += sh.engine().Snapshot().Ingested
		}
		return n + s.rejectedTotal()
	}
	before, sent := seen(), 0
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	for _, evs := range bodies {
		body := encode(t, evs)
		sent += len(evs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Accepted != int64(len(evs)) {
				errs <- fmt.Errorf("post of %d records: HTTP %d %s", len(evs), rec.Code, rec.Body.String())
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("concurrent posts still running after a minute: deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := seen() - before; got != int64(sent) {
		t.Fatalf("engines saw %d of the %d records posted", got, sent)
	}
}

func TestConcurrentPostsIntoOneShard(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 1, Window: 30 * time.Minute, ShedTimeout: time.Minute})
	defer s.Close()
	const posts, each = 4, 500
	for lo := 0; lo+posts*each <= min(len(tail), 5*posts*each); lo += posts * each {
		bodies := make([][]raslog.Event, posts)
		for i := range bodies {
			bodies[i] = tail[lo+i*each : lo+(i+1)*each]
		}
		postConcurrently(t, s, bodies)
	}
}

// TestConcurrentRequestsSpanningShards: two requests whose last batches
// fan out over the same two shards, posted at once, round after round.
// Each takes the shard locks in shard order, so neither can hold one
// lock while waiting for the other's.
func TestConcurrentRequestsSpanningShards(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute, ShedTimeout: time.Minute})
	defer s.Close()
	const each = 1000
	for lo := 0; lo+2*each <= min(len(tail), 20*each); lo += 2 * each {
		bodies := [][]raslog.Event{tail[lo : lo+each], tail[lo+each : lo+2*each]}
		for _, evs := range bodies {
			if n := len(ofShard(s, evs, 0, each)); n == 0 || n == len(evs) {
				t.Fatalf("a body at %d routes %d of %d records to shard 0; each must span both shards", lo, n, len(evs))
			}
		}
		postConcurrently(t, s, bodies)
	}
}

func TestCloseDrainsAndRejectsIngest(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	post(t, s, encode(t, tail[:100]))

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // idempotent
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", rec.Code)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz after Close: %d %s", rec.Code, rec.Body.String())
	}

	// Read surfaces keep working on the drained state.
	if got := getAlerts(t, s); got.TotalAlerts < 0 {
		t.Fatal("alerts unavailable after Close")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 3, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail))

	// The latency histogram takes one observation per batch: each
	// shard's share of the request, in batches of wireBatchCap.
	perShard := make([]int, len(s.shards))
	for i := range tail {
		perShard[s.shardFor(&tail[i].Location).id]++
	}
	handoffs := 0
	for _, n := range perShard {
		handoffs += (n + wireBatchCap - 1) / wireBatchCap
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"bglserved_ingested_total " + strconv.Itoa(len(tail)),
		"bglserved_alerts_total",
		// Counter families end in _total; the per-shard restart family
		// is named apart from the aggregate bglserved_shard_restarts_total.
		"bglserved_shard_worker_restarts_total{shard=\"0\"} 0",
		"bglserved_shard_restarts_total 0",
		"# HELP bglserved_ingest_latency_seconds Batch-ready-to-engine-done latency per batch",
		"bglserved_ingest_latency_seconds_bucket{le=\"+Inf\"} " + strconv.Itoa(handoffs) + "\n",
		"bglserved_ingest_latency_seconds_count " + strconv.Itoa(handoffs) + "\n",
		"bglserved_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestWrongMethodIs405 holds every route to the method its mux pattern
// declares.
func TestWrongMethodIs405(t *testing.T) {
	meta, _ := fixture(t)
	s := New(meta, Config{Shards: 1})
	defer s.Close()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/ingest", "POST"},
		{http.MethodPost, "/v1/alerts", "GET, HEAD"},
		{http.MethodPost, "/v1/alerts/stream", "GET, HEAD"},
		{http.MethodPost, "/v1/quarantine", "GET, HEAD"},
		{http.MethodPost, "/v1/proofs", "GET, HEAD"},
		{http.MethodPost, "/v1/model", "GET, HEAD"},
		{http.MethodGet, "/v1/model/reload", "POST"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, Allow %q", c.method, c.path, rec.Code, rec.Header().Get("Allow"), c.allow)
		}
	}
}
