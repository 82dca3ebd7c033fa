package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"bglpred/internal/faultinject"
	"bglpred/internal/raslog"
)

// stubCluster is a gate over two handler-only backends on the fake
// transport: healthy on /healthz, and whatever ingest says on
// /v1/ingest — for tests about the forwards themselves, where a real
// serve.Server behind each would only add noise.
func stubCluster(t *testing.T, inject *faultinject.Injector, ingest func(i int, w http.ResponseWriter, r *http.Request)) (*Gate, []string) {
	t.Helper()
	tr := newHostTransport()
	hosts := []string{"http://b0.cluster.test", "http://b1.cluster.test"}
	for i := range hosts {
		tr.set(strings.TrimPrefix(hosts[i], "http://"), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/ingest" {
				io.WriteString(w, `{"status":"ok"}`)
				return
			}
			ingest(i, w, r)
		}))
	}
	g, err := New(Config{Backends: hosts, Client: &http.Client{Transport: tr}, Inject: inject, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, hosts
}

// rendezvous is an ingest handler pair that can only complete if both
// backends are inside their handlers at the same time: each announces
// itself, then waits for the other.
type rendezvous struct {
	entered [2]chan struct{}
}

func newRendezvous() *rendezvous {
	return &rendezvous{entered: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
}

// meet reports whether the peer showed up while i was in its handler.
func (rv *rendezvous) meet(i int) bool {
	close(rv.entered[i])
	select {
	case <-rv.entered[1-i]:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestGateForwardsOverlap passes only if a request's per-owner
// forwards are in flight together: behind a gate that forwards to one
// owner after the other, the first handler would wait for a peer that
// is never called.
func TestGateForwardsOverlap(t *testing.T) {
	_, tail := fixture(t)
	events := tail[:2000]
	for _, format := range []string{"text", "wire"} {
		t.Run(format, func(t *testing.T) {
			rv := newRendezvous()
			g, _ := stubCluster(t, nil, func(i int, w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if !rv.meet(i) {
					http.Error(w, "the other backend was never called while this one was in flight", http.StatusServiceUnavailable)
					return
				}
				io.WriteString(w, `{}`)
			})
			var resp IngestResponse
			if format == "wire" {
				resp = gatePostWire(t, g, encodeWire(t, events))
			} else {
				resp = gatePost(t, g, encode(t, events))
			}
			if resp.Routed != int64(len(events)) || resp.Buffered != 0 {
				t.Fatalf("ingest = %+v, want all %d routed; the forwards did not overlap", resp, len(events))
			}
		})
	}
}

// TestGateFanoutFailureParksOnlyItsOwner fails one backend while the
// other's forward is in flight: the failed owner's batch — and only
// it — parks for replay, the other's records count as routed, and the
// replay then delivers exactly what the request owed.
func TestGateFanoutFailureParksOnlyItsOwner(t *testing.T) {
	_, tail := fixture(t)
	events := tail[:2000]
	rv := newRendezvous()
	failing := true
	var got [2][]byte
	g, hosts := stubCluster(t, nil, func(i int, w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !failing { // the replay, after the request
			got[i] = append(got[i], body...)
			io.WriteString(w, `{}`)
			return
		}
		if !rv.meet(i) {
			t.Errorf("backend %d: peer never entered", i)
		}
		if i == 1 {
			http.Error(w, "injected mid-request failure", http.StatusInternalServerError)
			return
		}
		got[i] = append(got[i], body...)
		io.WriteString(w, `{}`)
	})
	want := expectedSplit(t, g, events)
	n0, n1 := int64(len(want[hosts[0]])), int64(len(want[hosts[1]]))
	if n0 == 0 || n1 == 0 {
		t.Fatalf("degenerate split %d/%d", n0, n1)
	}

	resp := gatePost(t, g, encode(t, events))
	if resp.Routed != n0 || resp.Buffered != n1 || resp.Accepted != n0+n1 {
		t.Fatalf("ingest = %+v, want %d routed (backend 0's) and %d buffered (backend 1's)", resp, n0, n1)
	}
	st := gateStatus(t, g)
	if b := st.Backends[0]; b.State != "up" || b.ReplayBuffered != 0 || b.Routed != n0 {
		t.Fatalf("backend 0 after its peer failed: %+v", b)
	}
	if b := st.Backends[1]; b.State != "down" || b.ReplayBuffered == 0 || b.Rerouted != n1 || b.Routed != 0 {
		t.Fatalf("failed backend 1: %+v", b)
	}

	failing = false
	g.ProbeNow()
	for i, host := range hosts {
		var lines []string
		d := raslog.NewWireDecoder(bytes.NewReader(got[i]))
		for {
			evs, err := d.ReadFrame()
			if err != nil {
				break
			}
			lines = append(lines, strings.Split(strings.TrimSuffix(string(encode(t, evs)), "\n"), "\n")...)
		}
		if !reflect.DeepEqual(lines, want[host]) {
			t.Fatalf("backend %d received %d records across the failure, owns %d", i, len(lines), len(want[host]))
		}
	}
}

// lateTransport answers 200 at once without having touched the request
// body, and reads and closes it only when told to — the latitude the
// RoundTripper contract gives a transport.
type lateTransport struct {
	returned chan struct{} // closed when RoundTrip hands back its response
	release  chan struct{} // close to let the body be read
	read     chan []byte   // what the late read saw
}

func (lt *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	go func() {
		<-lt.release
		data, _ := io.ReadAll(req.Body)
		req.Body.Close()
		lt.read <- data
	}()
	defer close(lt.returned)
	rec := httptest.NewRecorder()
	io.WriteString(rec, `{}`)
	return rec.Result(), nil
}

// TestIngestHoldsScratchUntilBodyClosed proves a request does not hand
// its pooled scratch back — the handler does not even return — while
// the transport can still read the forwarded body out of it, and that
// what the transport reads late is the body intact.
func TestIngestHoldsScratchUntilBodyClosed(t *testing.T) {
	_, tail := fixture(t)
	lt := &lateTransport{returned: make(chan struct{}), release: make(chan struct{}), read: make(chan []byte, 1)}
	g, err := New(Config{Backends: []string{"http://b0.cluster.test"}, Client: &http.Client{Transport: lt}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	body := encodeWire(t, tail[:500])
	ref := make([][]replayEntry, 1)
	referenceIngestWire(g, bytes.NewReader(body), new(IngestResponse), ref)
	var want []byte
	for _, e := range ref[0] {
		want = append(want, e.line...)
	}

	done := make(chan IngestResponse, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", raslog.WireContentType)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	<-lt.returned
	select {
	case <-done:
		t.Fatal("the request finished, releasing its scratch, while the transport still held the forwarded body")
	case <-time.After(100 * time.Millisecond):
	}
	close(lt.release)
	if got := <-lt.read; !bytes.Equal(got, want) {
		t.Fatalf("late read saw %d bytes, not the %d-byte body the request built", len(got), len(want))
	}
	if resp := <-done; resp.Routed != 500 {
		t.Fatalf("ingest = %+v, want 500 routed", resp)
	}
}

// TestGateFaultScheduleDeterministic is the chaos suites' "replays
// identically" as an assertion: the same seeded fault plan, run twice
// with the backends' relative speed reversed so the concurrent
// forwards finish in the opposite order, must fire at the same
// (request, backend, point) triples.
func TestGateFaultScheduleDeterministic(t *testing.T) {
	_, tail := fixture(t)

	// The fixed order is ring order: when every second draw of a point
	// fires, a request for both owners fails backend 1's forward — the
	// second drawn — whichever goroutine gets to run first.
	in := faultinject.New(clusterChaosSeed)
	in.Set(faultinject.GateForwardDown, faultinject.Plan{Every: 2, Times: 1})
	g, _ := stubCluster(t, in, func(i int, w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{}`)
	})
	gatePostWire(t, g, encodeWire(t, tail[:500]))
	if e0, e1 := g.backends[0].forwardErrs.Load(), g.backends[1].forwardErrs.Load(); e0 != 0 || e1 != 1 {
		t.Fatalf("forward failures %d/%d, want the one injected fault on backend 1", e0, e1)
	}

	const requests = 40
	run := func(slow int) (log []string, hits, fires [2]int) {
		in := faultinject.New(clusterChaosSeed)
		in.Set(faultinject.GateForwardDown, faultinject.Plan{Prob: 0.25})
		in.Set(faultinject.GateForwardPartial, faultinject.Plan{Prob: 0.25})
		g, _ := stubCluster(t, in, func(i int, w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if i == slow {
				time.Sleep(2 * time.Millisecond)
			}
			io.WriteString(w, `{}`)
		})
		var downs, partials [2]int64
		note := func(when string) {
			for i, b := range g.backends {
				if d := b.forwardErrs.Load(); d != downs[i] {
					log = append(log, fmt.Sprintf("%s backend %d %s x%d", when, i, faultinject.GateForwardDown, d-downs[i]))
					downs[i] = d
				}
				if p := b.partials.Load(); p != partials[i] {
					log = append(log, fmt.Sprintf("%s backend %d %s x%d", when, i, faultinject.GateForwardPartial, p-partials[i]))
					partials[i] = p
				}
			}
		}
		for req := 0; req < requests; req++ {
			chunk := tail[req*100 : (req+1)*100]
			if req%2 == 0 {
				gatePostWire(t, g, encodeWire(t, chunk))
			} else {
				gatePost(t, g, encode(t, chunk))
			}
			note(fmt.Sprintf("request %d", req))
			g.ProbeNow() // recover what a fault downed; the drain draws verdicts too
			note(fmt.Sprintf("probe %d", req))
		}
		for i, p := range []faultinject.Point{faultinject.GateForwardDown, faultinject.GateForwardPartial} {
			hits[i], fires[i] = in.Hits(p), in.Fires(p)
		}
		return log, hits, fires
	}
	logA, hitsA, firesA := run(0)
	logB, hitsB, firesB := run(1)
	if firesA[0] == 0 || firesA[1] == 0 {
		t.Fatalf("fires %v in hits %v: a point never fired, the comparison is vacuous", firesA, hitsA)
	}
	if hitsA != hitsB || firesA != firesB {
		t.Fatalf("hits/fires differ between runs: %v/%v vs %v/%v", hitsA, firesA, hitsB, firesB)
	}
	if !reflect.DeepEqual(logA, logB) {
		for i := 0; i < len(logA) && i < len(logB); i++ {
			if logA[i] != logB[i] {
				t.Fatalf("fire logs diverge at entry %d:\n run A %s\n run B %s", i, logA[i], logB[i])
			}
		}
		t.Fatalf("fire logs differ in length: %d vs %d", len(logA), len(logB))
	}
	t.Logf("%d fire-log entries, identical across runs (hits %v, fires %v)", len(logA), hitsA, firesA)
}
