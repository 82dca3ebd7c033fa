// Package edge is the operator-facing HTTP edge that bglserved and
// bglgate share: the Prometheus text exposition (Metrics, Histogram),
// the bounded inspection ring behind /v1/alerts and /v1/quarantine
// (Ring), the never-blocking server-sent-events fan-out behind
// /v1/alerts/stream (Broker), the JSON reply writer, and the opt-in
// profiling handlers (DebugFlag, WithDebug). How a metric family or an
// SSE frame is spelled is decided here and nowhere else; the daemons
// say what to expose, not how it is written. The package is a leaf:
// standard library only.
package edge

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/pprof"
)

// WriteJSON writes v as the JSON body of a reply with the given
// status. HTML escaping is off: bodies carry RAS entry text verbatim.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// The status line is already out: on an encode or write error the
	// client sees a truncated body, and there is nobody else to tell.
	_ = enc.Encode(v)
}

// DebugFlag registers on fs, into on, the switch both daemons share for
// the profiling handlers; they stay off unless it is given.
func DebugFlag(fs *flag.FlagSet, on *bool) {
	fs.BoolVar(on, "debug-handlers", false, "serve net/http/pprof profiles and runtime/trace captures under /debug/pprof/")
}

// WithDebug returns h, and when on is set puts the net/http/pprof
// handlers in front of it: the profile index and named profiles under
// /debug/pprof/, a CPU profile at /debug/pprof/profile and a
// runtime/trace capture at /debug/pprof/trace. With on unset, h alone
// answers those paths, with its own 404.
func WithDebug(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
