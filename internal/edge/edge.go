// Package edge is the operator-facing HTTP edge that bglserved and
// bglgate share: the Prometheus text exposition (Metrics, Histogram),
// the bounded inspection ring behind /v1/alerts and /v1/quarantine
// (Ring), the never-blocking server-sent-events fan-out behind
// /v1/alerts/stream (Broker), and the JSON reply writer. How a metric
// family or an SSE frame is spelled is decided here and nowhere else;
// the daemons say what to expose, not how it is written. The package
// is a leaf: standard library only.
package edge

import (
	"encoding/json"
	"net/http"
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
