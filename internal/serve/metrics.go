package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bglpred/internal/online"
)

// latencyBounds are the upper bounds (inclusive) of the ingest-latency
// histogram buckets. The range spans a cache-warm engine step (tens of
// microseconds) up to a queue saturated by backpressure.
var latencyBounds = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// histogram is a lock-free fixed-bucket latency histogram in the
// Prometheus cumulative-bucket style.
type histogram struct {
	buckets []atomic.Int64 // one per bound, non-cumulative internally
	over    atomic.Int64   // observations above the last bound (+Inf)
	sumNS   atomic.Int64
	count   atomic.Int64
}

func (h *histogram) init() {
	h.buckets = make([]atomic.Int64, len(latencyBounds))
}

// observe records one latency sample. Safe for concurrent use.
func (h *histogram) observe(d time.Duration) {
	h.sumNS.Add(int64(d))
	h.count.Add(1)
	for i, bound := range latencyBounds {
		if d <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// handleMetrics writes the Prometheus text exposition: aggregate and
// per-shard engine counters, queue depths, and the ingest-latency
// histogram. Latency is measured per hand-off — one observation per
// batch a shard queue carried, in either dialect — from enqueue to
// engine completion, so queue wait (backpressure) is included.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	var total struct {
		ingested, unique, unclassified, alerts, renewals int64
	}
	type perShard struct {
		snap  online.Snapshot
		depth int
	}
	shards := make([]perShard, len(s.shards))
	for i, sh := range s.shards {
		snap := sh.engine().Snapshot()
		shards[i] = perShard{snap: snap, depth: len(sh.ch)}
		total.ingested += snap.Ingested
		total.unique += snap.Unique
		total.unclassified += snap.Unclassified
		total.alerts += snap.Alerts
		total.renewals += snap.Renewals
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("bglserved_ingested_total", "Raw RAS records ingested.", total.ingested)
	counter("bglserved_unique_total", "Records surviving streaming compression.", total.unique)
	counter("bglserved_unclassified_total", "Records matching no subcategory.", total.unclassified)
	counter("bglserved_alerts_total", "New alarms raised.", total.alerts)
	counter("bglserved_renewals_total", "Standing-alarm renewals.", total.renewals)
	counter("bglserved_rejected_total", "Records rejected as out of log order.", s.rejectedTotal())
	counter("bglserved_parse_errors_total", "Ingest requests aborted by a stream-level read error.", s.parseErrs.Load())
	counter("bglserved_ingest_requests_total", "POST /v1/ingest requests served.", s.ingestReqs.Load())
	counter("bglserved_stream_dropped_total", "SSE events dropped on slow subscribers.", s.broker.droppedTotal())
	counter("bglserved_quarantined_total", "Malformed ingest records parked in quarantine.", s.quarantine.total())
	counter("bglserved_quarantine_dropped_total", "Quarantined records evicted from the inspection ring on overflow.", s.quarantine.droppedCount())
	counter("bglserved_shed_total", "Ingest requests shed with 429 on saturated shard queues.", s.shedTotal.Load())
	counter("bglserved_deadline_exceeded_total", "Ingest requests cut short by the request deadline.", s.deadlined.Load())
	counter("bglserved_shard_restarts_total", "Shard workers restarted after a panic, all shards.", s.Restarts())

	degraded := 0
	if s.degraded() {
		degraded = 1
	}
	fmt.Fprintf(w, "# HELP bglserved_degraded Whether the service is in degraded mode (recent shed or saturated queue).\n# TYPE bglserved_degraded gauge\nbglserved_degraded %d\n", degraded)

	fmt.Fprintf(w, "# HELP bglserved_shard_worker_restarts_total Shard-worker restarts after panics, per shard.\n# TYPE bglserved_shard_worker_restarts_total counter\n")
	for i, sh := range s.shards {
		fmt.Fprintf(w, "bglserved_shard_worker_restarts_total{shard=\"%d\"} %d\n", i, sh.restarts.Load())
	}

	fmt.Fprintf(w, "# HELP bglserved_shard_queue_depth Batches queued per shard.\n# TYPE bglserved_shard_queue_depth gauge\n")
	for i, ps := range shards {
		fmt.Fprintf(w, "bglserved_shard_queue_depth{shard=\"%d\"} %d\n", i, ps.depth)
	}
	fmt.Fprintf(w, "# HELP bglserved_shard_ingested_total Records ingested per shard.\n# TYPE bglserved_shard_ingested_total counter\n")
	for i, ps := range shards {
		fmt.Fprintf(w, "bglserved_shard_ingested_total{shard=\"%d\"} %d\n", i, ps.snap.Ingested)
	}
	fmt.Fprintf(w, "# HELP bglserved_shard_pending_keys Streaming-compression dedup keys held per shard.\n# TYPE bglserved_shard_pending_keys gauge\n")
	for i, ps := range shards {
		fmt.Fprintf(w, "bglserved_shard_pending_keys{shard=\"%d\"} %d\n", i, ps.snap.PendingKeys)
	}

	fmt.Fprintf(w, "# HELP bglserved_ingest_latency_seconds Enqueue-to-engine-completion latency per hand-off (one batch of up to 4096 records of one request), text and binary alike.\n# TYPE bglserved_ingest_latency_seconds histogram\n")
	var cum int64
	for i, bound := range latencyBounds {
		cum += s.latency.buckets[i].Load()
		fmt.Fprintf(w, "bglserved_ingest_latency_seconds_bucket{le=\"%g\"} %d\n", bound.Seconds(), cum)
	}
	cum += s.latency.over.Load()
	fmt.Fprintf(w, "bglserved_ingest_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "bglserved_ingest_latency_seconds_sum %g\n", time.Duration(s.latency.sumNS.Load()).Seconds())
	fmt.Fprintf(w, "bglserved_ingest_latency_seconds_count %d\n", s.latency.count.Load())

	model := s.model.Load()
	fmt.Fprintf(w, "# HELP bglserved_model_version Generation of the serving model (1 = startup model; each hot-swap increments).\n# TYPE bglserved_model_version gauge\nbglserved_model_version %d\n",
		model.Version)
	fmt.Fprintf(w, "# HELP bglserved_model_age_seconds Seconds since the serving model was loaded.\n# TYPE bglserved_model_age_seconds gauge\nbglserved_model_age_seconds %g\n",
		time.Since(model.LoadedAt).Seconds())
	fmt.Fprintf(w, "# HELP bglserved_model_swaps_total Completed model hot-swaps.\n# TYPE bglserved_model_swaps_total counter\nbglserved_model_swaps_total %d\n",
		s.swaps.Load())
	standing := 0
	for _, ps := range shards {
		if ps.snap.Standing != nil {
			standing++
		}
	}
	fmt.Fprintf(w, "# HELP bglserved_standing_alarms Shards currently carrying an active alarm.\n# TYPE bglserved_standing_alarms gauge\nbglserved_standing_alarms %d\n",
		standing)

	fmt.Fprintf(w, "# HELP bglserved_uptime_seconds Seconds since startup.\n# TYPE bglserved_uptime_seconds gauge\nbglserved_uptime_seconds %g\n",
		time.Since(s.start).Seconds())

	if s.cfg.Ledger != nil {
		counter("bglserved_ledger_appends_total", "Audit-ledger entries appended by the serving layer.", s.ledgerAppends.Load())
		counter("bglserved_ledger_append_failures_total", "Audit-ledger appends that failed (the served request itself succeeded).", s.ledgerErrs.Load())
		s.cfg.Ledger.WriteMetrics(w)
	}

	if s.cfg.AuxMetrics != nil {
		s.cfg.AuxMetrics(w)
	}
}
