package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bglpred/internal/faultinject"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
)

// TestShardPanicSupervisionIsLossless: with one shard every batch runs
// on the request goroutine; with two, a request's shard-0 batch runs
// on a goroutine of its own and its shard-1 batch on the request
// goroutine, so injected panics land on both paths.
func TestShardPanicSupervisionIsLossless(t *testing.T) {
	meta, tail := fixture(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Faulty run: the shard panics on every 5th batch. A 100-record
			// request is one batch per shard it touches, so the tail goes
			// in as ~400 requests. With SnapshotEvery=1 the shard snapshots
			// after every batch and the panic point sits after that
			// snapshot, so every restart resumes exactly where the crash
			// happened and each shard's alert stream must match its
			// fault-free reference bit for bit.
			const perPost, every = 100, 5
			in := faultinject.New(7)
			in.Set(faultinject.ShardPanic, faultinject.Plan{Every: every, Panic: true})
			s := New(meta, Config{
				Shards:        shards,
				History:       1 << 16,
				Window:        30 * time.Minute,
				SnapshotEvery: 1,
				Inject:        in,
			})
			defer s.Close()

			// Reference: each shard's substream through a fault-free engine.
			direct := make([][]predictor.Warning, shards)
			engines := make([]*online.Engine, shards)
			for i := range engines {
				engines[i] = online.New(meta, online.Config{
					Window:  30 * time.Minute,
					OnAlert: func(w predictor.Warning) { direct[i] = append(direct[i], w) },
				})
			}
			for i := range tail {
				if _, err := engines[s.shardFor(&tail[i].Location).id].Ingest(&tail[i]); err != nil {
					t.Fatal(err)
				}
			}

			handoffs := 0
			for lo := 0; lo < len(tail); lo += perPost {
				chunk := tail[lo:min(lo+perPost, len(tail))]
				touched := make(map[int]bool)
				for i := range chunk {
					touched[s.shardFor(&chunk[i].Location).id] = true
				}
				handoffs += len(touched)
				resp := post(t, s, encode(t, chunk))
				if resp.Accepted != int64(len(chunk)) {
					t.Fatalf("accepted %d of %d", resp.Accepted, len(chunk))
				}
			}

			if restarts := s.Restarts(); restarts == 0 {
				t.Fatal("no restarts despite the armed panic point")
			} else if want := int64(handoffs / every); restarts != want || restarts != int64(in.Fires(faultinject.ShardPanic)) {
				t.Fatalf("restarts = %d, want %d (Every=%d over %d batches; %d panics injected)",
					restarts, want, every, handoffs, in.Fires(faultinject.ShardPanic))
			}
			for _, sh := range s.shards {
				if sh.restarts.Load() == 0 {
					t.Fatalf("shard %d never restarted: the panics did not land on both paths", sh.id)
				}
			}

			got := getAlerts(t, s)
			byShard := make([][]Alert, shards)
			for _, a := range got.Recent {
				byShard[a.Shard] = append(byShard[a.Shard], a)
			}
			total := 0
			for shard, want := range direct {
				total += len(want)
				if len(want) == 0 {
					t.Fatalf("shard %d: no alerts over a failure-rich tail", shard)
				}
				if len(byShard[shard]) != len(want) {
					t.Fatalf("shard %d: faulty run raised %d alerts, fault-free reference %d", shard, len(byShard[shard]), len(want))
				}
				for i, a := range byShard[shard] {
					w := want[i]
					if !a.At.Equal(w.At) || a.Source != w.Source || !a.End.Equal(w.End) || a.Confidence != w.Confidence {
						t.Fatalf("shard %d: alert %d diverged after restarts:\n got %+v\nwant %+v", shard, i, a, w)
					}
				}
			}
			if got.TotalAlerts != int64(total) {
				t.Fatalf("faulty run raised %d alerts in all, references %d", got.TotalAlerts, total)
			}

			// healthz must never have flagged the panics as unhealth — the
			// service stayed alive throughout; restarts are reported.
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("healthz after restarts: %d", rec.Code)
			}
			var hz struct {
				Status        string `json:"status"`
				ShardRestarts int64  `json:"shard_restarts"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
				t.Fatal(err)
			}
			if hz.Status != "ok" || hz.ShardRestarts != s.Restarts() {
				t.Fatalf("healthz = %+v", hz)
			}
		})
	}
}

func TestInjectedCorruptionQuarantinesDeterministically(t *testing.T) {
	meta, tail := fixture(t)
	in := faultinject.New(7)
	// Fires on the 10th, 20th and 30th decoded record, then goes quiet.
	in.Set(faultinject.IngestCorrupt, faultinject.Plan{Every: 10, Times: 3})
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute, Inject: in})
	defer s.Close()

	n := 100
	resp := post(t, s, encode(t, tail[:n]))
	if resp.Quarantined != 3 || resp.Accepted != int64(n-3) {
		t.Fatalf("resp = %+v, want 3 quarantined of %d", resp, n)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var q QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 3 {
		t.Fatalf("quarantine total = %d, want 3", q.Total)
	}
	for _, r := range q.Recent {
		if !strings.Contains(r.Cause, "serve.ingest.corrupt") {
			t.Fatalf("cause = %q, want the fault point name", r.Cause)
		}
	}
}

// holdShard posts body, all of one shard's records, in the background
// and returns once its batch is stalled in in's one-shot ShardSlow
// delay, holding the shard's lock; the returned channel yields its
// reply.
func holdShard(t *testing.T, s *Server, in *faultinject.Injector, body []byte, contentType string) <-chan *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec
	}()
	for in.Fires(faultinject.ShardSlow) == 0 {
		select {
		case rec := <-done:
			t.Fatalf("holding request finished before it was seen stalled: %d %s", rec.Code, rec.Body.String())
		case <-time.After(time.Millisecond):
		}
	}
	return done
}

// ofShard returns up to n of events, in order, that s routes to shard
// id.
func ofShard(s *Server, events []raslog.Event, id, n int) []raslog.Event {
	var out []raslog.Event
	for i := range events {
		if len(out) < n && s.shardFor(&events[i].Location).id == id {
			out = append(out, events[i])
		}
	}
	return out
}

func TestSaturatedShardShedsWith429(t *testing.T) {
	meta, tail := fixture(t)
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			in := faultinject.New(7)
			// The first batch to run — the holding request's — takes a
			// second; every later one runs at full speed.
			in.Set(faultinject.ShardSlow, faultinject.Plan{Delay: time.Second, Times: 1})
			s := New(meta, Config{
				Shards:      2,
				Window:      30 * time.Minute,
				ShedTimeout: -1, // shed at once on a busy shard
				Inject:      in,
			})
			defer s.Close()
			encodeBody := func(evs []raslog.Event) ([]byte, string) {
				if wire {
					return encodeWire(t, evs), raslog.WireContentType
				}
				return encode(t, evs), "text/plain"
			}

			// One request holds shard 1 while a second one sends a full
			// batch of shard 0 and then records of shard 1: the shard-0
			// batch runs mid-body, and the shard-1 remainder finds its
			// shard busy and sheds the request.
			shard0 := ofShard(s, tail, 0, wireBatchCap)
			shard1 := ofShard(s, tail, 1, 1000)
			if len(shard0) < wireBatchCap || len(shard1) < 1000 {
				t.Fatalf("tail routes %d/%d records to shards 0/1", len(shard0), len(shard1))
			}
			body, ct := encodeBody(shard1[:10])
			held := holdShard(t, s, in, body, ct)
			body, ct = encodeBody(append(append([]raslog.Event{}, shard0...), shard1[10:]...))
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
			}
			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" || resp.Accepted != wireBatchCap {
				t.Fatalf("resp = %+v; a shed reply reports the partial acceptance, in whole batches (the one shard-0 batch), of the %d sent", resp, wireBatchCap+len(shard1)-10)
			}
			if h := <-held; h.Code != http.StatusOK {
				t.Fatalf("holding request: %d %s", h.Code, h.Body.String())
			}

			// The shed flips the service into degraded mode on /healthz...
			hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			hrec := httptest.NewRecorder()
			s.ServeHTTP(hrec, hreq)
			if hrec.Code != http.StatusOK {
				t.Fatalf("healthz status %d (degraded is not dead)", hrec.Code)
			}
			var hz struct {
				Status   string `json:"status"`
				Degraded bool   `json:"degraded"`
			}
			if err := json.Unmarshal(hrec.Body.Bytes(), &hz); err != nil {
				t.Fatal(err)
			}
			if !hz.Degraded || hz.Status != "degraded" {
				t.Fatalf("healthz = %+v, want degraded after a shed", hz)
			}

			// ...and onto /metrics.
			mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			mrec := httptest.NewRecorder()
			s.ServeHTTP(mrec, mreq)
			body2 := mrec.Body.String()
			if !strings.Contains(body2, "bglserved_shed_total 1") {
				t.Fatalf("metrics missing shed counter:\n%s", body2)
			}
			if !strings.Contains(body2, "bglserved_degraded 1") {
				t.Fatal("metrics missing degraded gauge")
			}
		})
	}
}

// TestRequestDeadlineBoundsShardWait: the request deadline bounds a
// wait for a busy shard (503), not an engine's own work — the request
// holding the shard outlives its own deadline and still succeeds.
func TestRequestDeadlineBoundsShardWait(t *testing.T) {
	meta, tail := fixture(t)
	const hold = 2 * time.Second
	in := faultinject.New(7)
	in.Set(faultinject.ShardSlow, faultinject.Plan{Delay: hold, Times: 1})
	s := New(meta, Config{
		Shards:         1,
		Window:         30 * time.Minute,
		RequestTimeout: 100 * time.Millisecond,
		ShedTimeout:    10 * time.Second, // longer than the deadline: the deadline must win
		Inject:         in,
	})
	defer s.Close()

	held := holdShard(t, s, in, encode(t, tail[:10]), "text/plain")
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(encode(t, tail[10:20])))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 on deadline: %s", rec.Code, rec.Body.String())
	}
	if elapsed > hold/2 {
		t.Fatalf("request took %v against a %v hold; the deadline did not bound the shard wait", elapsed, hold)
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "deadline") || resp.Accepted != 0 {
		t.Fatalf("resp = %+v, want a deadline explanation and nothing accepted", resp)
	}
	if h := <-held; h.Code != http.StatusOK {
		t.Fatalf("holding request: %d %s; its engine work is not under the deadline", h.Code, h.Body.String())
	}
}

// TestSSEHeartbeat: a quiet stream carries the configured heartbeats.
// edge's TestServeSSEGolden checks that a disconnect unsubscribes.
func TestSSEHeartbeat(t *testing.T) {
	meta, _ := fixture(t)
	s := New(meta, Config{Shards: 1, Window: 30 * time.Minute, StreamHeartbeat: 30 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/alerts/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// With no alerts flowing, the quiet stream must still carry
	// periodic heartbeat comments.
	hb := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, ":") {
				select {
				case hb <- line:
				default:
				}
			}
		}
	}()
	var beats int
	deadline := time.After(5 * time.Second)
	for beats < 3 {
		select {
		case line := <-hb:
			if line == ": hb" {
				beats++
			}
		case <-deadline:
			t.Fatalf("saw %d heartbeats in 5s at a 30ms interval", beats)
		}
	}
}
