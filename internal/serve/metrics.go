package serve

import (
	"net/http"
	"strconv"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/online"
)

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	edge.ServeMetrics(w, s.writeMetrics)
}

// writeMetrics lists the exposition: aggregate and per-shard engine
// counters, the ingest-latency histogram and the ingest stage timers.
// Latency is measured per batch, in either dialect, from the batch
// being ready to its engine being done, so the wait for a busy shard
// (backpressure) is included; the stage timers split that path into
// decode (the recorder's observe inside it), shard wait, engine (alert
// emit inside it) and ledger append.
func (s *Server) writeMetrics(m *edge.Metrics) {
	var total online.Counters // summed over shards
	standing := int64(0)
	snaps := make([]online.Snapshot, len(s.shards))
	for i, sh := range s.shards {
		snap := sh.engine().Snapshot()
		snaps[i] = snap
		total.Ingested += snap.Ingested
		total.Unique += snap.Unique
		total.Unclassified += snap.Unclassified
		total.Alerts += snap.Alerts
		total.Renewals += snap.Renewals
		total.Duplicate += snap.Duplicate
		if snap.Standing != nil {
			standing++
		}
	}
	quarantined, quarantineDropped := s.quarantine.Counts()

	m.Counter("bglserved_ingested_total", "Raw RAS records ingested.", total.Ingested)
	m.Counter("bglserved_unique_total", "Records surviving streaming compression.", total.Unique)
	m.Counter("bglserved_unclassified_total", "Records matching no subcategory.", total.Unclassified)
	m.Counter("bglserved_alerts_total", "New alarms raised.", total.Alerts)
	m.Counter("bglserved_renewals_total", "Standing-alarm renewals.", total.Renewals)
	m.Counter("bglserved_rejected_total", "Records rejected as out of log order.", s.rejectedTotal())
	m.Counter("bglserved_duplicate_total", "Records refused as repeats of a record already taken.", total.Duplicate)
	m.Counter("bglserved_parse_errors_total", "Ingest requests aborted by a stream-level read error.", s.parseErrs.Load())
	m.Counter("bglserved_ingest_requests_total", "POST /v1/ingest requests served.", s.ingestReqs.Load())
	m.Counter("bglserved_stream_dropped_total", "SSE events dropped on slow subscribers.", s.broker.Dropped())
	m.Counter("bglserved_quarantined_total", "Malformed ingest records parked in quarantine.", quarantined)
	m.Counter("bglserved_quarantine_dropped_total", "Quarantined records evicted from the inspection ring on overflow.", quarantineDropped)
	m.Counter("bglserved_shed_total", "Ingest requests shed with 429 after waiting out the shed timeout for a busy shard.", s.shedTotal.Load())
	m.Counter("bglserved_deadline_exceeded_total", "Ingest requests cut short by the request deadline.", s.deadlined.Load())
	m.Counter("bglserved_shard_restarts_total", "Shard workers restarted after a panic, all shards.", s.Restarts())

	degraded := int64(0)
	if s.degraded() {
		degraded = 1
	}
	m.Gauge("bglserved_degraded", "Whether the service is in degraded mode (it shed load recently).", degraded)

	n := len(s.shards)
	m.CounterVec("bglserved_shard_worker_restarts_total", "Shard-worker restarts after panics, per shard.", "shard", n,
		func(i int) (string, int64) { return strconv.Itoa(i), s.shards[i].restarts.Load() })
	m.CounterVec("bglserved_shard_ingested_total", "Records ingested per shard.", "shard", n,
		func(i int) (string, int64) { return strconv.Itoa(i), snaps[i].Ingested })
	m.GaugeVec("bglserved_shard_pending_keys", "Streaming-compression dedup keys held per shard.", "shard", n,
		func(i int) (string, int64) { return strconv.Itoa(i), int64(snaps[i].PendingKeys) })

	m.Histogram("bglserved_ingest_latency_seconds", "Batch-ready-to-engine-done latency per batch (up to 4096 records of one request), shard wait included, text and binary alike.", s.latency)
	m.Histogram("bglserved_ingest_decode_seconds", "Time per ingest request spent decoding its body, body reads included, text and binary alike.", s.decodeTime)
	m.Histogram("bglserved_ingest_shard_wait_seconds", "Time per batch spent waiting for its shard's lock, refused waits included.", s.waitTime)
	m.Histogram("bglserved_ingest_engine_seconds", "Time per batch spent in its shard engine's IngestBatch.", s.engineTime)
	m.Histogram("bglserved_alert_emit_seconds", "Time per emitted alert spent recording, publishing and ledgering it, inside its batch's engine time.", s.emitTime)

	model := s.model.Load()
	m.Gauge("bglserved_model_version", "Generation of the serving model (1 = startup model; each hot-swap increments).", model.Version)
	m.GaugeSeconds("bglserved_model_age_seconds", "Seconds since the serving model was loaded.", time.Since(model.LoadedAt))
	m.Counter("bglserved_model_swaps_total", "Completed model hot-swaps.", s.swaps.Load())
	m.Gauge("bglserved_standing_alarms", "Shards currently carrying an active alarm.", standing)
	m.GaugeSeconds("bglserved_uptime_seconds", "Seconds since startup.", time.Since(s.start))

	if s.cfg.Ledger != nil {
		m.Counter("bglserved_ledger_appends_total", "Audit-ledger entries appended by the serving layer.", s.ledgerAppends.Load())
		m.Counter("bglserved_ledger_append_failures_total", "Audit-ledger appends that failed (the served request itself succeeded).", s.ledgerErrs.Load())
		m.Histogram("bglserved_ingest_ledger_append_seconds", "Time per ingest request spent appending its audit-ledger record, group commit included.", s.ledgerTime)
		s.cfg.Ledger.WriteMetrics(m)
	}
	if s.cfg.AuxMetrics != nil {
		s.cfg.AuxMetrics(m)
	}
}
