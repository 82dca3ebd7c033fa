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

func TestShardPanicSupervisionIsLossless(t *testing.T) {
	meta, tail := fixture(t)

	// Reference: the alert stream of a fault-free single engine.
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
		t.Fatal("no alerts over a failure-rich tail")
	}

	// Faulty run: the worker panics on every 5th hand-off. The unit of
	// hand-off is a batch, and a 100-record request to the single shard
	// is exactly one, so the tail goes in as ~400 requests. With
	// SnapshotEvery=1 the shard snapshots after every batch and the
	// panic point sits after that snapshot, so every restart resumes
	// exactly where the crash happened and the alert stream must match
	// the reference bit for bit.
	const perPost, every = 100, 5
	in := faultinject.New(7)
	in.Set(faultinject.ShardPanic, faultinject.Plan{Every: every, Panic: true})
	s := New(meta, Config{
		Shards:        1,
		History:       1 << 16,
		Window:        30 * time.Minute,
		SnapshotEvery: 1,
		Inject:        in,
	})
	defer s.Close()

	posts := 0
	for lo := 0; lo < len(tail); lo += perPost {
		chunk := tail[lo:min(lo+perPost, len(tail))]
		resp := post(t, s, encode(t, chunk))
		if resp.Accepted != int64(len(chunk)) {
			t.Fatalf("accepted %d of %d", resp.Accepted, len(chunk))
		}
		posts++
	}

	if restarts := s.Restarts(); restarts == 0 {
		t.Fatal("no supervisor restarts despite the armed panic point")
	} else if want := int64(posts / every); restarts != want || restarts != int64(in.Fires(faultinject.ShardPanic)) {
		t.Fatalf("restarts = %d, want %d (Every=%d over %d hand-offs; %d panics injected)",
			restarts, want, every, posts, in.Fires(faultinject.ShardPanic))
	}

	got := getAlerts(t, s)
	if got.TotalAlerts != int64(len(direct)) {
		t.Fatalf("faulty run raised %d alerts, fault-free reference %d", got.TotalAlerts, len(direct))
	}
	for i, a := range got.Recent {
		w := direct[i]
		if !a.At.Equal(w.At) || a.Source != w.Source || !a.End.Equal(w.End) || a.Confidence != w.Confidence {
			t.Fatalf("alert %d diverged after restarts:\n got %+v\nwant %+v", i, a, w)
		}
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

func TestSaturatedShardShedsWith429(t *testing.T) {
	meta, tail := fixture(t)
	if len(tail) < 4*wireBatchCap {
		t.Fatalf("tail of %d records cannot saturate a depth-1 queue of %d-record batches", len(tail), wireBatchCap)
	}
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			in := faultinject.New(7)
			// Each hand-off (a batch of up to wireBatchCap records) takes
			// 100 ms on the single shard. The whole tail is ~10 batches in
			// one request: the worker sleeps on the first, the second fills
			// the depth-1 queue, and with immediate shedding the next one is
			// refused long before the worker wakes.
			in.Set(faultinject.ShardSlow, faultinject.Plan{Delay: 100 * time.Millisecond})
			s := New(meta, Config{
				Shards:      1,
				QueueDepth:  1,
				Window:      30 * time.Minute,
				ShedTimeout: -1,
				Inject:      in,
			})
			defer s.Close()

			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(encode(t, tail)))
			if wire {
				req = httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(encodeWire(t, tail)))
				req.Header.Set("Content-Type", raslog.WireContentType)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
			}
			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" || resp.Accepted == 0 || resp.Accepted >= int64(len(tail)) || resp.Accepted%wireBatchCap != 0 {
				t.Fatalf("resp = %+v; a shed reply reports the partial acceptance, in whole batches, of the %d sent", resp, len(tail))
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
			body := mrec.Body.String()
			if !strings.Contains(body, "bglserved_shed_total 1") {
				t.Fatalf("metrics missing shed counter:\n%s", body)
			}
			if !strings.Contains(body, "bglserved_degraded 1") {
				t.Fatal("metrics missing degraded gauge")
			}
		})
	}
}

func TestRequestDeadlineBoundsQueueWait(t *testing.T) {
	meta, tail := fixture(t)
	in := faultinject.New(7)
	in.Set(faultinject.ShardSlow, faultinject.Plan{Delay: 200 * time.Millisecond})
	s := New(meta, Config{
		Shards:         1,
		QueueDepth:     1,
		Window:         30 * time.Minute,
		RequestTimeout: 100 * time.Millisecond,
		ShedTimeout:    10 * time.Second, // longer than the deadline: the deadline must win
		Inject:         in,
	})
	defer s.Close()

	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(encode(t, tail[:10]))))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 on deadline: %s", rec.Code, rec.Body.String())
	}
	if elapsed > 5*time.Second {
		t.Fatalf("request took %v; the deadline did not bound the queue wait", elapsed)
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("resp.Error = %q, want a deadline explanation", resp.Error)
	}
}

func TestSSEHeartbeatAndDisconnectCleanup(t *testing.T) {
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

	if got := s.broker.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d after connect, want 1", got)
	}

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

	// Client disconnect: the handler must notice and unsubscribe.
	cancel()
	resp.Body.Close()
	cleanupDeadline := time.Now().Add(5 * time.Second)
	for s.broker.Subscribers() != 0 {
		if time.Now().After(cleanupDeadline) {
			t.Fatalf("subscribers = %d after disconnect, want 0", s.broker.Subscribers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
