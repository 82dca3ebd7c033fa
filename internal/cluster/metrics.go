package cluster

import (
	"net/http"
	"time"

	"bglpred/internal/edge"
)

// handleMetrics serves GET /metrics.
func (g *Gate) handleMetrics(w http.ResponseWriter, r *http.Request) {
	edge.ServeMetrics(w, g.writeMetrics)
}

// writeMetrics lists the gate's exposition: routing and replay
// counters per backend, cluster health gauges, the gate's own request
// counters, and its stage timers (routing per request, forwarding per
// backend) — the bglgate_ namespace, disjoint from the
// backends' bglserved_ families so one scrape config can collect both
// without collisions. Per-backend families are labeled by the backend
// URL (the ring member identity, stable across restarts).
func (g *Gate) writeMetrics(m *edge.Metrics) {
	quarantined, quarantineDropped := g.quarantine.Counts()
	m.Counter("bglgate_ingest_requests_total", "POST /v1/ingest requests served by the gate.", g.ingestReqs.Load())
	m.Counter("bglgate_parse_errors_total", "Ingest requests aborted by a stream-level read error.", g.parseErrs.Load())
	m.Counter("bglgate_model_swaps_total", "Completed rolling cluster-wide model swaps.", g.swaps.Load())
	m.Counter("bglgate_reload_failures_total", "Rolling swaps aborted before completing.", g.reloadFails.Load())
	m.Counter("bglgate_stream_dropped_total", "Merged SSE events dropped on slow subscribers.", g.broker.Dropped())
	m.Counter("bglgate_quarantined_total", "Text ingest lines the gate could not decode or carry as wire records, parked in its quarantine.", quarantined)
	m.Counter("bglgate_quarantine_dropped_total", "Quarantined records evicted from the gate's bounded ring before an operator read them.", quarantineDropped)
	m.Counter("bglgate_ledger_tampered_total", "Backends flagged tampered by the audit-ledger self-consistency check (head regressed or root changed under a fixed seq).", g.tampered.Load())

	bs := g.backends
	m.CounterVec("bglgate_routed_total", "Lines delivered per backend on the direct path.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].routed.Load() })
	m.CounterVec("bglgate_replayed_total", "Lines delivered per backend from its replay buffer.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].replayed.Load() })
	m.CounterVec("bglgate_rerouted_total", "Lines diverted into a backend's replay buffer while it was unroutable.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].rerouted.Load() })
	m.CounterVec("bglgate_forward_errors_total", "Failed ingest forwards per backend.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].forwardErrs.Load() })
	m.CounterVec("bglgate_probe_failures_total", "Failed health probes per backend.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].probeFails.Load() })
	m.CounterVec("bglgate_partial_responses_total", "Delivered batches whose acknowledgment body was cut (200 status trusted).", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, bs[i].partials.Load() })

	// Replay state is read under one lock acquisition per backend, so
	// the three families describing it agree within a scrape.
	type replayView struct{ dropped, buffered, up int64 }
	views := make([]replayView, len(bs))
	for i, b := range bs {
		b.mu.Lock()
		views[i] = replayView{dropped: b.replay.dropped, buffered: int64(b.replay.len())}
		if b.state.routable() {
			views[i].up = 1
		}
		b.mu.Unlock()
	}
	m.CounterVec("bglgate_replay_dropped_total", "Replay-buffer records lost to the window or hard cap, per backend.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, views[i].dropped })
	m.GaugeVec("bglgate_replay_buffered", "Records currently parked in each backend's replay buffer.", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, views[i].buffered })
	m.GaugeVec("bglgate_backend_up", "Whether each backend is routable (up or degraded = 1; down, skewed or tampered = 0).", "backend", len(bs),
		func(i int) (string, int64) { return bs[i].url, views[i].up })

	m.Histogram("bglgate_ingest_route_seconds", "Time per ingest request up to its first forward: body read, text transcoding and the routing scan.", g.routeTime)
	m.HistogramVec("bglgate_forward_seconds", "Time per ingest forward to each backend, acknowledgment read included.", "backend", len(bs),
		func(i int) (string, *edge.Histogram) { return bs[i].url, bs[i].forwardTime })

	m.Gauge("bglgate_backends", "Configured backend count.", int64(len(bs)))
	m.Gauge("bglgate_stream_subscriptions", "Live fan-in subscriptions to backend alert streams.", g.streamsUp.Load())
	m.GaugeSeconds("bglgate_uptime_seconds", "Seconds since gate startup.", time.Since(g.start))
}
