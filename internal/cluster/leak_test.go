package cluster

import (
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

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
	if running := runtime.NumGoroutine(); running < before+1+len(hosts) {
		t.Fatalf("%d goroutines while running, want at least %d + prober + %d stream loops", running, before, len(hosts))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
