package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

// sseClient connects to /v1/alerts/stream on a live test server and
// decodes alert events into a channel until the stream or context
// ends.
func sseClient(t *testing.T, ctx context.Context, url string) (<-chan Alert, *http.Response) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/alerts/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream: content type %q", ct)
	}
	events := make(chan Alert, 1024)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var a Alert
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &a); err != nil {
				continue
			}
			events <- a
		}
	}()
	return events, resp
}

func TestSSEStreamMidRunSubscriber(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Phase 1: ingest a head slice before anyone subscribes.
	cut := len(tail) / 10
	post(t, s, encode(t, tail[:cut]))
	n1 := getAlerts(t, s).TotalAlerts

	// Subscribe mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, resp := sseClient(t, ctx, ts.URL)
	defer resp.Body.Close()

	// Phase 2: ingest the rest; the subscriber must see exactly the
	// alarms raised from here on (none from phase 1).
	post(t, s, encode(t, tail[cut:]))
	n2 := getAlerts(t, s).TotalAlerts
	if n2 == n1 {
		t.Skip("no alerts in second chunk (seed-dependent)")
	}

	want := n2 - n1
	var got []Alert
	deadline := time.After(10 * time.Second)
	for int64(len(got)) < want {
		select {
		case a, live := <-events:
			if !live {
				t.Fatalf("stream closed after %d of %d events", len(got), want)
			}
			got = append(got, a)
		case <-deadline:
			t.Fatalf("timed out after %d of %d events", len(got), want)
		}
	}
	for _, a := range got {
		if a.Seq < n1 {
			t.Fatalf("received pre-subscribe alert seq %d (< %d)", a.Seq, n1)
		}
	}
	select {
	case a, live := <-events:
		if live {
			t.Fatalf("unexpected extra event seq %d", a.Seq)
		}
	case <-time.After(100 * time.Millisecond):
	}

	// Disconnect, then keep ingesting: shard batches must not stall on
	// the dead subscriber.
	cancel()
	resp.Body.Close()
	shifted := append([]raslog.Event(nil), tail[len(tail)-200:]...)
	for i := range shifted {
		shifted[i].Time = shifted[i].Time.Add(24 * time.Hour)
	}
	done := make(chan struct{})
	go func() {
		post(t, s, encode(t, shifted))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest stalled after subscriber disconnect")
	}
}

func TestSSESlowSubscriberNeverBlocksIngest(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A subscriber that never reads: its buffer fills and overflow is
	// dropped, but ingestion keeps its throughput.
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

	done := make(chan struct{})
	go func() {
		post(t, s, encode(t, tail))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingest blocked behind an unread SSE subscriber")
	}
}

func TestSSECloseDisconnectsSubscribers(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, Window: 30 * time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()
	post(t, s, encode(t, tail[:100]))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, resp := sseClient(t, ctx, ts.URL)
	defer resp.Body.Close()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, live := <-events:
		if live {
			// Drain any buffered events; the channel must close soon.
			for range events {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber not disconnected by Close")
	}
}
