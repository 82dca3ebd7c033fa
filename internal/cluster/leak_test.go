package cluster

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// gateLoops counts the goroutines running a gate's background loops,
// read from their stacks: a process-wide goroutine count also moves
// with whatever earlier tests left winding down.
func gateLoops() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte(").probeLoop(")) + bytes.Count(buf, []byte(").streamLoop("))
}

// TestCloseLeavesNoGoroutines: the prober, one SSE fan-in loop per
// backend and a request's per-owner forwards are all gone once Close
// returns, so the process is back to the goroutine count it had
// before New.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	_, tail := fixture(t)
	before := runtime.NumGoroutine()
	g, hosts := stubCluster(t, nil, func(i int, w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{}`)
	})
	g.Start()
	if resp := gatePost(t, g, encode(t, tail[:2000])); resp.Routed != 2000 {
		t.Fatalf("ingest = %+v, want all 2000 routed", resp)
	}
	// A loop Start spawned may not be in a stack dump yet on a busy
	// host: wait for all of them, as the check after Close waits.
	deadline := time.Now().Add(2 * time.Second)
	for loops := gateLoops(); loops < 1+len(hosts); loops = gateLoops() {
		if time.Now().After(deadline) {
			t.Fatalf("%d gate loops while running, want at least the prober + %d stream loops", loops, len(hosts))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
