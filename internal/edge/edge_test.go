package edge

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(fill func(*Metrics)) (string, error) {
	m := &Metrics{seen: make(map[string]bool)}
	fill(m)
	return string(m.buf), m.err
}

// TestMetricsConventions is what the metricconv analyzer used to grep
// for: each naming rule rejects its offender at write time, leaves the
// family out of the scrape, and turns the scrape into a 500.
func TestMetricsConventions(t *testing.T) {
	cases := []struct {
		name     string
		fill     func(*Metrics)
		want     string // substring of the error; "" means a clean scrape
		families int    // families that still made it into the buffer
	}{
		{"clean", func(m *Metrics) {
			m.Counter("bglserved_a_total", "A.", 1)
			m.Gauge("bglgate_b", "B.", 2)
			m.GaugeSeconds("bglledger_c_seconds", "C.", 1500*time.Millisecond)
			m.CounterVec("bglserved_d_total", "D.", "shard", 2, func(i int) (string, int64) { return strconv.Itoa(i), int64(3 + i) })
		}, "", 4},
		{"counter without _total", func(m *Metrics) { m.Counter("bglserved_a", "A.", 1) }, "must end in _total", 0},
		{"gauge with _total", func(m *Metrics) { m.Gauge("bglserved_a_total", "A.", 1) }, "must not end in _total", 0},
		{"histogram with _total", func(m *Metrics) { m.Histogram("bglserved_a_total", "A.", NewHistogram(nil)) }, "must not end in _total", 0},
		{"no namespace", func(m *Metrics) { m.Counter("ingested_total", "A.", 1) }, "prefix", 0},
		{"declared twice", func(m *Metrics) {
			m.Counter("bglserved_a_total", "A.", 1)
			m.CounterVec("bglserved_a_total", "A.", "shard", 1, func(int) (string, int64) { return "0", 1 })
		}, "declared twice", 1},
		{"empty help", func(m *Metrics) {
			m.GaugeVec("bglserved_a", "", "shard", 1, func(int) (string, int64) { return "0", 1 })
		}, "no HELP", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			ServeMetrics(rec, c.fill)
			if c.want == "" {
				want := "# HELP bglserved_a_total A.\n# TYPE bglserved_a_total counter\nbglserved_a_total 1\n" +
					"# HELP bglgate_b B.\n# TYPE bglgate_b gauge\nbglgate_b 2\n" +
					"# HELP bglledger_c_seconds C.\n# TYPE bglledger_c_seconds gauge\nbglledger_c_seconds 1.5\n" +
					"# HELP bglserved_d_total D.\n# TYPE bglserved_d_total counter\nbglserved_d_total{shard=\"0\"} 3\nbglserved_d_total{shard=\"1\"} 4\n"
				if rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Fatalf("status %d, body:\n%s\nwant:\n%s", rec.Code, rec.Body.String(), want)
				}
				return
			}
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), c.want) {
				t.Fatalf("status %d body %q, want 500 mentioning %q", rec.Code, rec.Body.String(), c.want)
			}
			if body, _ := scrape(c.fill); strings.Count(body, "# TYPE") != c.families || strings.Contains(body, "{") {
				t.Fatalf("want %d families and no stray sample left in the buffer:\n%s", c.families, body)
			}
		})
	}
}

func TestMetricsEscaping(t *testing.T) {
	body, err := scrape(func(m *Metrics) {
		m.GaugeVec("bglgate_up", "Line one\nback\\slash.", "backend", 1, func(int) (string, int64) { return "http://a\"b\\c\n", 1 })
	})
	want := "# HELP bglgate_up Line one\\nback\\\\slash.\n# TYPE bglgate_up gauge\nbglgate_up{backend=\"http://a\\\"b\\\\c\\n\"} 1\n"
	if err != nil || body != want {
		t.Fatalf("err %v, body %q, want %q", err, body, want)
	}
}

// TestHistogramVec pins a labelled histogram's spelling: the label
// pair leads each bucket's le, and _sum and _count carry it alone.
func TestHistogramVec(t *testing.T) {
	a, b := NewHistogram([]time.Duration{time.Millisecond}), NewHistogram([]time.Duration{time.Millisecond})
	a.Observe(time.Millisecond)
	b.Observe(2 * time.Second)
	hs := []*Histogram{a, b}
	body, err := scrape(func(m *Metrics) {
		m.HistogramVec("bglgate_x_seconds", "X.", "backend", 2, func(i int) (string, *Histogram) { return []string{"a", "b\""}[i], hs[i] })
	})
	want := "# HELP bglgate_x_seconds X.\n# TYPE bglgate_x_seconds histogram\n" +
		"bglgate_x_seconds_bucket{backend=\"a\",le=\"0.001\"} 1\nbglgate_x_seconds_bucket{backend=\"a\",le=\"+Inf\"} 1\n" +
		"bglgate_x_seconds_sum{backend=\"a\"} 0.001\nbglgate_x_seconds_count{backend=\"a\"} 1\n" +
		"bglgate_x_seconds_bucket{backend=\"b\\\"\",le=\"0.001\"} 0\nbglgate_x_seconds_bucket{backend=\"b\\\"\",le=\"+Inf\"} 1\n" +
		"bglgate_x_seconds_sum{backend=\"b\\\"\"} 2\nbglgate_x_seconds_count{backend=\"b\\\"\"} 1\n"
	if err != nil || body != want {
		t.Fatalf("err %v, body:\n%s\nwant:\n%s", err, body, want)
	}
}

// TestHistogramCountMatchesInfBucket scrapes while observers run: the
// text format requires _count to equal the +Inf bucket in every scrape.
func TestHistogramCountMatchesInfBucket(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for d := time.Duration(g) * time.Microsecond; ; d += 700 * time.Microsecond {
				select {
				case <-stop:
					return
				default:
					h.Observe(d % (2 * time.Second))
				}
			}
		}(g)
	}
	re := regexp.MustCompile(`_bucket\{le="\+Inf"\} (\d+)\n.*\n.*_count (\d+)\n`)
	for i := 0; i < 2000; i++ {
		body, err := scrape(func(m *Metrics) { m.Histogram("bglserved_x_seconds", "X.", h) })
		if err != nil {
			t.Fatal(err)
		}
		if f := re.FindStringSubmatch(body); f == nil || f[1] != f[2] {
			t.Fatalf("scrape %d: _count and +Inf bucket disagree (%v) in:\n%s", i, f, body)
		}
	}

	body, _ := scrape(func(m *Metrics) { m.Histogram("bglserved_x_seconds", "X.", h) })
	for _, want := range []string{"# TYPE bglserved_x_seconds histogram\n", `_bucket{le="0.001"} `, `_bucket{le="1"} `, "_sum "} {
		if !strings.Contains(body, want) {
			t.Fatalf("histogram exposition lacks %q:\n%s", want, body)
		}
	}
}

type entry struct {
	Seq int64
	N   int
}

func (e entry) WithSeq(seq int64) entry { e.Seq = seq; return e }

func TestRing(t *testing.T) {
	cases := []struct {
		name        string
		capacity, n int
		wantFirst   int // N of the oldest held entry
	}{
		{"empty", 4, 0, 0},
		{"under cap", 4, 3, 0},
		{"at cap", 4, 4, 0},
		{"one past cap", 4, 5, 1},
		{"wrapped twice", 4, 11, 7},
		{"capacity one", 1, 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRing[entry](c.capacity)
			for i := 0; i < c.n; i++ {
				if got := r.Add(entry{N: i}); got.Seq != int64(i) || got.N != i {
					t.Fatalf("Add #%d returned %+v", i, got)
				}
			}
			recent, total, dropped := r.Snapshot()
			held := min(c.n, c.capacity)
			if len(recent) != held || total != int64(c.n) || dropped != int64(c.n-held) {
				t.Fatalf("snapshot: %d held, total %d, dropped %d; want %d, %d, %d", len(recent), total, dropped, held, c.n, c.n-held)
			}
			for i, e := range recent {
				if e.N != c.wantFirst+i || e.Seq != int64(e.N) {
					t.Fatalf("recent[%d] = %+v, want N and Seq %d (oldest first)", i, e, c.wantFirst+i)
				}
			}
			if ct, cd := r.Counts(); ct != total || cd != dropped {
				t.Fatalf("Counts() = %d, %d; Snapshot said %d, %d", ct, cd, total, dropped)
			}
		})
	}
}

// TestRingSnapshotIsOneInstant is the torn-read regression: a reply
// must never pair a pre-eviction total with a post-eviction dropped.
func TestRingSnapshotIsOneInstant(t *testing.T) {
	r := NewRing[entry](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Add(entry{N: i})
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		recent, total, dropped := r.Snapshot()
		if total-dropped != int64(len(recent)) {
			t.Fatalf("total %d - dropped %d != %d held", total, dropped, len(recent))
		}
		for j, e := range recent {
			if e.Seq != total-int64(len(recent))+int64(j) {
				t.Fatalf("recent[%d].Seq = %d in a snapshot of total %d holding %d", j, e.Seq, total, len(recent))
			}
		}
	}
	wg.Wait()
}

func TestBrokerNeverBlocksAndCountsDrops(t *testing.T) {
	b := NewBroker[int]()
	ch, ok := b.subscribe()
	if !ok {
		t.Fatal("subscribe refused on a live broker")
	}
	for i := 0; i < subBuffer+5; i++ {
		b.Publish(i) // nobody reads: must return regardless
	}
	if got := b.Dropped(); got != 5 {
		t.Fatalf("dropped %d, want 5 (buffer %d, %d published)", got, subBuffer, subBuffer+5)
	}
	b.Close()
	b.Close() // idempotent
	n := 0
	for range ch {
		n++
	}
	if n != subBuffer {
		t.Fatalf("drained %d buffered events before the close, want %d", n, subBuffer)
	}
	if _, ok := b.subscribe(); ok {
		t.Fatal("subscribe accepted after Close")
	}
}

// TestServeSSEGolden holds the handler to testdata/sse.golden — the
// frames both daemons' /v1/alerts/stream tests are pinned by — and
// checks that a client hanging up is reaped.
// subscribers is the broker's live subscriber count.
func subscribers[T any](b *Broker[T]) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

func TestServeSSEGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sse.golden"))
	if err != nil {
		t.Fatal(err)
	}
	payload := regexp.MustCompile(`(?m)^data: (.*)$`).FindSubmatch(want)[1]

	b := NewBroker[json.RawMessage]()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.ServeSSE(w, r, 50*time.Millisecond, func(json.RawMessage) int64 { return 1 })
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if subscribers(b) != 1 {
		t.Fatalf("subscribers = %d after connect, want 1", subscribers(b))
	}
	b.Publish(payload)

	var got strings.Builder
	rd := bufio.NewReader(resp.Body)
	for !strings.Contains(got.String(), "data: ") || !strings.HasSuffix(got.String(), ": hb\n\n") {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v after %q", err, got.String())
		}
		got.WriteString(line)
	}
	// A heartbeat may race ahead of the alert; the golden has the one after.
	if frames := strings.ReplaceAll(got.String(), ": hb\n\n", "") + ": hb\n\n"; frames != string(want) {
		t.Fatalf("frames:\n%q\nwant:\n%q", frames, want)
	}

	cancel()
	for deadline := time.Now().Add(5 * time.Second); subscribers(b) != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d after disconnect, want 0", subscribers(b))
		}
	}
}
