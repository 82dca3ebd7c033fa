package edge_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"testing"

	"bglpred/internal/cluster"
	"bglpred/internal/edge"
	"bglpred/internal/predictor"
	"bglpred/internal/serve"
)

// TestDebugHandlersAreOptIn puts both daemons' handlers behind
// WithDebug as their mains do. Without -debug-handlers every profiling
// path answers 404; with it the profiles and a trace are served, and
// the daemon's own routes still answer.
func TestDebugHandlersAreOptIn(t *testing.T) {
	srv := serve.New(predictor.NewMeta(), serve.Config{Shards: 1})
	defer srv.Close()
	gate, err := cluster.New(cluster.Config{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.Close()
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	paths := []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline",
		"/debug/pprof/symbol", "/debug/pprof/profile?seconds=1", "/debug/pprof/trace?seconds=0.05"}
	for name, daemon := range map[string]http.Handler{"bglserved": srv, "bglgate": gate} {
		for _, args := range [][]string{nil, {"-debug-handlers"}} {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			var on bool
			edge.DebugFlag(fs, &on)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			h := edge.WithDebug(daemon, on)
			if code := get(h, "/metrics"); code != http.StatusOK {
				t.Errorf("%s %v: /metrics answered %d", name, args, code)
			}
			for _, path := range paths {
				if !on {
					if code := get(h, path); code != http.StatusNotFound {
						t.Errorf("%s without the flag: %s answered %d, want 404", name, path, code)
					}
					continue
				}
				if code := get(h, path); code != http.StatusOK {
					t.Errorf("%s with the flag: %s answered %d, want 200", name, path, code)
				}
			}
		}
	}
}
