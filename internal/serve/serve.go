// Package serve is the deployed form of the online prediction engine
// (paper §3.3): an HTTP service that ingests raw RAS records over
// POST /v1/ingest (the newline-delimited pipe dialect, or the binary
// wire-frame format negotiated via
// Content-Type: application/x-bglbin), fans
// them out to N sharded online.Engine instances keyed by the
// rack/midplane prefix of each record's location, and exposes the
// resulting alarms over a pull endpoint (GET /v1/alerts), a push
// stream (GET /v1/alerts/stream, server-sent events), a health probe
// (GET /healthz), a quarantine inspection endpoint
// (GET /v1/quarantine), and a Prometheus-style text exposition
// (GET /metrics).
//
// Each shard owns one engine and one lock, and the server owns no
// goroutines: the request goroutine decodes the body and runs each
// shard's batches itself, under that shard's lock. A request that waits
// for a busy shard's lock past the shed timeout fails with 429 instead
// of wedging the client. Records within one request preserve arrival
// order per shard, so each engine still sees its substream in CMCS log
// order.
//
// Resilience properties (see README "Failure modes and recovery"):
//
//   - A panic while a shard's batch runs is isolated to that shard: a
//     recover rebuilds the engine from its last good state snapshot.
//     Alerts already raised live in the server-side history ring and
//     are never lost; the standing alarm survives inside the snapshot;
//     at most SnapshotEvery records of dedup/window evidence plus the
//     batch in progress are lost per restart.
//   - Malformed or unclassifiable ingest lines are quarantined (a
//     bounded ring inspectable at /v1/quarantine) instead of failing
//     the batch or silently vanishing.
//   - Every ingest request's waits for busy shards run under a
//     deadline, and saturation is shed with 429 plus a degraded flag
//     on /healthz, so a stalled shard degrades the service instead of
//     accumulating wedged connections.
package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/faultinject"
	"bglpred/internal/ledger"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
)

// Config parameterizes the service. The zero value serves four shards
// with the online package's defaults.
type Config struct {
	// Shards is the number of engine shards (default 4). Records are
	// routed by the rack/midplane prefix of their location, so all
	// evidence for one midplane — the granularity jobs are scheduled
	// at — lands on one engine.
	Shards int
	// History is the capacity of the recent-alerts ring buffer served
	// by GET /v1/alerts (default 256).
	History int
	// QuarantineCap bounds the ring of malformed ingest records kept
	// for inspection at GET /v1/quarantine (default 128).
	QuarantineCap int
	// MinConfidence suppresses alerts below this confidence from the
	// alert surfaces (they still count as engine activity).
	MinConfidence float64
	// RequestTimeout bounds how long one POST /v1/ingest request waits
	// for busy shards, all its waits together (default 60 s; negative
	// disables). It does not bound an engine's own work: a batch that
	// has its shard runs to the end. A wait the deadline cuts short
	// answers 503 with the records accepted so far.
	RequestTimeout time.Duration
	// ShedTimeout is how long one batch may wait for its busy shard
	// before the request is shed with 429 (default 1 s; negative sheds
	// at once when the shard is busy).
	ShedTimeout time.Duration
	// SnapshotEvery is each shard's state-snapshot cadence in records
	// (default 1024), checked after each batch: a snapshot is taken
	// once at least this many records have gone by since the last. It
	// bounds what a shard panic can lose to those records plus the
	// batch in progress.
	SnapshotEvery int
	// StreamHeartbeat is the SSE comment-heartbeat interval on
	// GET /v1/alerts/stream (default 15 s; negative disables), which
	// lets dead subscriber connections be detected and reaped even
	// when no alerts flow.
	StreamHeartbeat time.Duration
	// Window is each shard engine's prediction window (zero takes the
	// online package default).
	Window time.Duration
	// Model identifies the trained model the server starts with
	// (surfaced by GET /v1/model). Zero-value fields get defaults:
	// Version 1, LoadedAt now. Rules and Predictors are derived from
	// the meta-learner.
	Model ModelInfo
	// OnRecord, when set, gives shard i's engine its online OnRecord
	// hook on every build (a supervised restart re-issues the slots
	// issued since the last good snapshot): the retraining window's tap.
	OnRecord func(shard int) online.RecordFunc
	// Reload, when set, backs POST /v1/model/reload: it should retrain
	// or re-read the model and hot-swap it via SwapModel before
	// returning.
	Reload func() error
	// AuxMetrics, when set, is invoked at the end of GET /metrics to
	// append extra families (the daemon wires lifecycle retry/give-up
	// counters through it).
	AuxMetrics func(*edge.Metrics)
	// Inject is the fault-injection harness consulted at the serving
	// layer's fault points (shard panic/slow, ingest corruption). Nil
	// — the production configuration — compiles every fault point down
	// to a nil-receiver check.
	Inject *faultinject.Injector
	// Ledger, when set, receives a tamper-evident audit trail: the
	// digest of every accepted ingest batch and every emitted alert is
	// appended (group-committed, one fsync per batch), GET /v1/proofs
	// serves client-side verifiable inclusion proofs, /healthz and
	// /metrics report the ledger root and sequence, and /metrics gains
	// the bglledger_ families.
	Ledger *ledger.Ledger
	// AuxHealth, when set, is invoked with the /healthz response map
	// before it is written, so the daemon can add lifecycle facts
	// (last-checkpoint age) without the serve layer knowing about them.
	AuxHealth func(map[string]any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.History <= 0 {
		c.History = 256
	}
	if c.QuarantineCap <= 0 {
		c.QuarantineCap = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ShedTimeout == 0 {
		c.ShedTimeout = time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.StreamHeartbeat == 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	return c
}

// degradedHold is how long after a load-shed /healthz keeps reporting
// degraded (the busy shard may free up at once; the signal should not).
const degradedHold = 15 * time.Second

// Alert is one alarm as served over the HTTP API.
type Alert struct {
	// Seq is a server-assigned monotonically increasing sequence
	// number (also the SSE event id).
	Seq int64 `json:"seq"`
	// Shard is the engine shard that raised the alarm.
	Shard int `json:"shard"`
	// At is the event timestamp that triggered the prediction; the
	// alarm covers (Start, End].
	At    time.Time `json:"at"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Confidence, Source and Detail mirror predictor.Warning.
	Confidence float64 `json:"confidence"`
	Source     string  `json:"source"`
	Detail     string  `json:"detail"`
}

// WithSeq implements edge.Sequenced: the history ring assigns Seq.
func (a Alert) WithSeq(seq int64) Alert { a.Seq = seq; return a }

// IngestResponse is the body of a POST /v1/ingest reply.
type IngestResponse struct {
	// Accepted counts records decoded and processed by this request's
	// shard engines.
	Accepted int64 `json:"accepted"`
	// Quarantined counts this request's undecodable (or
	// fault-injected-corrupt) lines, parked in the quarantine ring
	// instead of failing the batch.
	Quarantined int64 `json:"quarantined,omitempty"`
	// RejectedTotal is the server-lifetime count of records rejected
	// by an engine (out of log order).
	RejectedTotal int64 `json:"rejected_total"`
	// Error describes what stopped the request early, if anything: a
	// stream-level read failure (400), a shard busy past ShedTimeout
	// (429), or a request deadline that expired waiting for a shard
	// (503). Per-line decode failures no longer stop a request; they
	// quarantine.
	Error string `json:"error,omitempty"`
}

// AlertsResponse is the body of a GET /v1/alerts reply.
type AlertsResponse struct {
	// Standing lists the alarm currently in force on each shard that
	// has one (evaluated at that shard's last-seen event time).
	Standing []Alert `json:"standing"`
	// Recent is the ring buffer of the newest alerts, oldest first.
	Recent []Alert `json:"recent"`
	// TotalAlerts counts every alert raised since startup (the ring
	// may have evicted older ones).
	TotalAlerts int64 `json:"total_alerts"`
}

// shard is one engine and the lock its batches run under: a one-slot
// channel, so that a request can wait for it with a timeout. The engine
// lives behind an atomic pointer because a recovered panic replaces it
// wholesale: observability readers must never see a half-dead engine
// (whose internal mutex a panic may have wedged).
type shard struct {
	id       int
	sem      chan struct{}
	eng      atomic.Pointer[online.Engine]
	rejected atomic.Int64 // records the engine refused (out of order)
	restarts atomic.Int64 // engine rebuilds after panics

	// lastGood is the most recent consistent engine-state snapshot —
	// what a restart restores from. Written under sem, and by
	// RestoreShards at startup.
	lastGood  atomic.Pointer[online.State]
	sinceSnap int // records since lastGood; guarded by sem
}

func (sh *shard) engine() *online.Engine { return sh.eng.Load() }

// Server is the sharded prediction service. It implements
// http.Handler; Close stops ingestion.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	shards []*shard

	// meta is the currently served trained model; a panicked shard's
	// engine is rebuilt over it, and SwapModel publishes retrained
	// models through it before touching engines.
	meta atomic.Pointer[predictor.Meta]

	// closeMu is held shared by in-flight ingest requests and
	// exclusively by Close, so no batch runs after Close returns.
	closeMu sync.RWMutex
	closed  bool

	start      time.Time
	parseErrs  atomic.Int64
	ingestReqs atomic.Int64
	shedTotal  atomic.Int64
	lastShed   atomic.Int64 // unixnano of the most recent shed, 0 if none
	deadlined  atomic.Int64 // ingest requests cut short by their deadline
	latency    *edge.Histogram

	// Ingest stage timers: a request's body decode (reads included),
	// each batch's shard-lock wait and engine run, each emitted alert,
	// and a request's audit-ledger append.
	decodeTime, waitTime, engineTime, emitTime, ledgerTime *edge.Histogram

	// model is the RCU-published identity of the serving model; swaps
	// replace the pointer after the engines have switched over.
	model atomic.Pointer[ModelInfo]
	swaps atomic.Int64

	history    *edge.Ring[Alert]
	quarantine *Quarantine
	broker     *edge.Broker[Alert]

	// Audit-ledger append outcomes (both 0 when cfg.Ledger is nil).
	ledgerAppends atomic.Int64
	ledgerErrs    atomic.Int64
}

// New builds a server over a trained meta-learner. Each shard gets an
// independent streaming engine (a fresh Stepper over the shared,
// read-only meta-learner).
func New(meta *predictor.Meta, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		latency:    edge.NewHistogram(edge.LatencyBounds),
		decodeTime: edge.NewHistogram(edge.LatencyBounds),
		waitTime:   edge.NewHistogram(edge.LatencyBounds),
		engineTime: edge.NewHistogram(edge.LatencyBounds),
		emitTime:   edge.NewHistogram(edge.LatencyBounds),
		ledgerTime: edge.NewHistogram(edge.LatencyBounds),
		history:    edge.NewRing[Alert](cfg.History),
		quarantine: NewQuarantine(cfg.QuarantineCap),
		broker:     edge.NewBroker[Alert](),
	}
	s.meta.Store(meta)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, sem: make(chan struct{}, 1)}
		sh.eng.Store(s.newEngine(i))
		s.shards = append(s.shards, sh)
	}
	info := cfg.Model
	if info.Version == 0 {
		info.Version = 1
	}
	s.publishModel(meta, info, s.start)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	// A subscriber sees only alarms raised after it connects; GET
	// /v1/alerts has the history. The event id is the alert's Seq.
	s.mux.HandleFunc("GET /v1/alerts/stream", func(w http.ResponseWriter, r *http.Request) {
		s.broker.ServeSSE(w, r, cfg.StreamHeartbeat, func(a Alert) int64 { return a.Seq })
	})
	s.mux.Handle("GET /v1/quarantine", s.quarantine)
	s.mux.HandleFunc("GET /v1/proofs", s.handleProofs)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	s.mux.HandleFunc("POST /v1/model/reload", s.handleModelReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// newEngine builds a fresh engine for shard i over the currently
// published meta-learner.
func (s *Server) newEngine(i int) *online.Engine {
	cfg := online.Config{Window: s.cfg.Window, OnAlert: s.onAlert(i)}
	if s.cfg.OnRecord != nil {
		cfg.OnRecord = s.cfg.OnRecord(i)
	}
	return online.New(s.meta.Load(), cfg)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops ingestion: it waits for the in-flight ingest requests,
// whose batches have all run when they return, and disconnects the SSE
// subscribers. The server rejects new ingestion afterwards; read
// endpoints keep working. Close is idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	closed := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if !closed {
		s.broker.Close()
	}
	return nil
}

// process runs one batch through sh's engine; at is when the batch was
// ready, for the ingest-latency histogram. The caller holds sh's lock,
// and process releases it on every path. A panic that escapes the
// batch — an engine bug, a poisonous record, an injected fault — is
// contained here: the suspect engine (a panic mid-step can leave its
// internal mutex held) gives way to a fresh one over the current model,
// restored from the last good state snapshot. Alerts already published
// live in the server-side history ring, so none are lost; the standing
// alarm rides inside the snapshot; at most SnapshotEvery records of
// compression/window evidence plus the batch in progress are lost per
// restart.
func (s *Server) process(sh *shard, evs []raslog.Event, at time.Time) {
	defer func() {
		if recover() != nil {
			sh.restarts.Add(1)
			eng := s.newEngine(sh.id)
			if st := sh.lastGood.Load(); st != nil {
				// Restore cannot fail here: the engine is fresh by
				// construction. A nil lastGood restarts cold.
				_ = eng.Restore(*st)
			}
			sh.eng.Store(eng)
			sh.sinceSnap = 0
		}
		<-sh.sem
	}()
	_ = s.cfg.Inject.Fire(faultinject.ShardSlow) // delay-only point
	// One engine-lock acquisition and one latency observation per batch.
	t := time.Now()
	rej := sh.engine().IngestBatch(evs)
	s.engineTime.Observe(time.Since(t))
	if rej > 0 {
		sh.rejected.Add(rej)
	}
	sh.sinceSnap += len(evs)
	recycleBatch(evs)
	s.latency.Observe(time.Since(at))
	if sh.sinceSnap >= s.cfg.SnapshotEvery {
		st := sh.engine().State()
		sh.lastGood.Store(&st)
		sh.sinceSnap = 0
	}
	// The panic point sits after the snapshot update, so an injected
	// crash at SnapshotEvery=1 (a snapshot after every batch) is
	// provably lossless — the chaos acceptance test's exact-continuity
	// half.
	_ = s.cfg.Inject.Fire(faultinject.ShardPanic)
}

// Restarts sums engine rebuilds after panics across shards.
func (s *Server) Restarts() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.restarts.Load()
	}
	return n
}

// onAlert builds the engine callback for shard i. It runs on the
// goroutine running the shard's batch, under the shard's lock and
// outside the engine's state lock.
func (s *Server) onAlert(i int) func(predictor.Warning) {
	return func(w predictor.Warning) {
		if w.Confidence < s.cfg.MinConfidence {
			return
		}
		t := time.Now()
		defer func() { s.emitTime.Observe(time.Since(t)) }()
		a := s.history.Add(Alert{ // assigns Seq
			Shard:      i,
			At:         w.At,
			Start:      w.Start,
			End:        w.End,
			Confidence: w.Confidence,
			Source:     w.Source,
			Detail:     w.Detail,
		})
		s.broker.Publish(a)
		s.appendAlertRecord(a)
	}
}

// shardFor routes a location to a shard by its rack/midplane prefix.
// Locations below midplane level collapse to their midplane, so all
// evidence for one scheduling unit shares an engine; unknown
// locations go to shard 0. It reads the location where the decoder
// left it.
func (s *Server) shardFor(loc *raslog.Location) *shard {
	// loc.MidplaneOf()'s rack and midplane, read in place: copying the
	// Location in and out of MidplaneOf cost more than the routing.
	var key int
	switch loc.Kind {
	case raslog.KindUnknown:
		key = 0
	case raslog.KindRack:
		key = loc.Rack * 2
	default:
		key = loc.Rack*2 + loc.Midplane
	}
	return s.shards[key%len(s.shards)]
}

// rejectedTotal sums engine-rejected records across shards.
func (s *Server) rejectedTotal() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.rejected.Load()
	}
	return n
}

// degraded reports whether the service is in degraded mode: it shed
// load within the last degradedHold. Surfaced on /healthz and /metrics
// so operators (and load balancers doing readiness) can route around a
// saturated server before its clients see more 429s.
func (s *Server) degraded() bool {
	last := s.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < degradedHold
}

// handleIngest streams the request body through its dialect's decoder
// into its shards' engines (ingest). Undecodable records are
// quarantined, not fatal. The reply is written only after every batch
// of this request has run, so a 200 means the alert surfaces reflect
// it. RequestTimeout bounds the request's waits for busy shards (503),
// and ShedTimeout each one of them (429).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.ingestReqs.Add(1)

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	var resp IngestResponse
	var code int
	// The ledger digest streams alongside decoding — one pass over the
	// body, no buffering of the batch.
	body, digest := s.teeIngestBody(r.Body)
	// The dialects differ only in the pooled decoder armed on the body;
	// the ingest loop pulls records from either.
	if r.Header.Get("Content-Type") == raslog.WireContentType {
		dec := wireDecoders.Get().(*raslog.WireDecoder)
		dec.Reset(body)
		dec.OnSkip = func(rec []byte, err error) {
			s.quarantine.Add(0, string(rec), err)
			resp.Quarantined++
		}
		code = s.ingest(ctx, dec, &resp)
		dec.Reset(eofReader{}) // drop the body reference before pooling
		wireDecoders.Put(dec)
	} else {
		rd := textReaders.Get().(*raslog.Reader)
		rd.Reset(body)
		rd.Lenient(func(le raslog.LineError) {
			s.quarantine.Add(le.Line, le.Raw, le.Err)
			resp.Quarantined++
		})
		code = s.ingest(ctx, rd, &resp)
		rd.Reset(eofReader{})
		textReaders.Put(rd)
	}

	// Record the accepted batch in the audit ledger before replying:
	// a 200 means the batch is both processed and auditable.
	s.appendIngestRecord(digest, &resp)

	resp.RejectedTotal = s.rejectedTotal()
	edge.WriteJSON(w, code, resp)
}

// Decoders are pooled across ingest requests so their buffers and
// string intern tables carry over: steady-state ingest in either
// dialect does not allocate per record. A parked decoder holds no
// body (eofReader) and at most its line or payload buffer (1 MiB text,
// 16 MiB wire, both usually 64 KiB) and an intern table capped at
// 16 Ki strings of at most 1 KiB.
var (
	wireDecoders = sync.Pool{
		New: func() any { return raslog.NewWireDecoder(eofReader{}) },
	}
	textReaders = sync.Pool{
		New: func() any { return raslog.NewReader(eofReader{}) },
	}
)

// eofReader is the parked state of a pooled decoder (no body retained).
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// recordSource is a body decoder as the ingest loop drives it, one
// record at a time: NextEvent decodes the next record at least as far
// as its location, in the decoder's own memory — io.EOF at the clean
// end, or a stream-level error — and DecodeEvent puts the record into
// the batch slot the loop picked by that location.
// A record DecodeEvent fails has gone to quarantine through the
// decoder's hook. *raslog.WireDecoder and *raslog.Reader are the two.
type recordSource interface {
	NextEvent() (*raslog.Location, error)
	DecodeEvent(*raslog.Event) error
}

// wireBatchCap bounds a per-shard event batch: large enough to
// amortize the shard- and engine-lock acquisitions over thousands of
// records, small enough that pooled buffers stay warm and batch memory
// per request stays bounded. A batch runs when it fills, which for a
// body carrying fewer than wireBatchCap records of a shard — every
// 4096-record bench body — is only at the end of the body, in runLast.
const wireBatchCap = 4096

// eventBatches recycles per-shard batch buffers across ingest
// requests. Growing a fresh
// multi-thousand-event slice per request would reintroduce, on the far
// side of the zero-alloc decoders, exactly the allocation and GC-scan
// traffic they removed; steady-state ingest instead cycles a small set
// of fixed-capacity buffers. A pooled buffer may pin the strings of its
// last batch until reuse — bounded by wireBatchCap and the pool's
// lifetime, and cheaper than clearing.
var eventBatches = sync.Pool{
	New: func() any {
		s := make([]raslog.Event, 0, wireBatchCap)
		return &s
	},
}

// recycleBatch parks a consumed batch for reuse. Only buffers at the
// pooled capacity return; oddballs (and the batches of a shed request)
// fall to the GC.
func recycleBatch(evs []raslog.Event) {
	if cap(evs) != wireBatchCap {
		return
	}
	evs = evs[:0]
	eventBatches.Put(&evs)
}

// ingest runs one request's body through its shards' engines and
// returns the HTTP status. A batch that fills mid-body runs at once, on
// the request goroutine, before decoding goes on; so when the body ends
// each shard has at most one batch left, and runLast runs those. A stream-level failure stops decoding with 400, after the
// intact prefix has run. A shard that stays busy past ShedTimeout or
// the request deadline stops the request; its batch and the batches
// after it do not run.
func (s *Server) ingest(ctx context.Context, src recordSource, resp *IngestResponse) int {
	byShard := make([][]raslog.Event, len(s.shards))
	var decoding time.Duration
	defer func() { s.decodeTime.Observe(decoding) }()
	for {
		t := time.Now()
		id, code := s.decode(src, byShard, resp)
		decoding += time.Since(t)
		if id < 0 {
			if refused := s.runLast(ctx, byShard, resp); refused != 0 {
				return refused
			}
			return code
		}
		at, sh := time.Now(), s.shards[id]
		if refused := s.acquire(ctx, sh, resp); refused != 0 {
			return refused
		}
		resp.Accepted += int64(len(byShard[id]))
		s.process(sh, byShard[id], at)
		byShard[id] = nil
	}
}

// decode pulls the body's records one at a time from src and puts
// each at the end of its shard's pooled batch in byShard. It
// returns a shard's index as soon as that shard's batch reaches
// wireBatchCap, and -1 when the body ends, with the HTTP status: 200,
// or 400 after a stream-level failure. Undecodable records have gone to
// quarantine through the decoder's hook.
//
//bglvet:hotpath
func (s *Server) decode(src recordSource, byShard [][]raslog.Event, resp *IngestResponse) (full, code int) {
	for {
		loc, err := src.NextEvent()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return -1, http.StatusOK
			}
			// Stream-level failure (corrupt frame, oversized line, body
			// read error): nothing after this point is decodable.
			s.parseErrs.Add(1)
			resp.Error = err.Error()
			return -1, http.StatusBadRequest
		}
		id := s.shardFor(loc).id
		b := byShard[id]
		if b == nil {
			b = (*eventBatches.Get().(*[]raslog.Event))[:0]
			byShard[id] = b
		}
		// The record decodes into the slot past the batch's end (a batch
		// below wireBatchCap always has one) and joins the batch only
		// once it is decoded and admitted.
		n := len(b)
		ev := &b[:n+1][n]
		if src.DecodeEvent(ev) != nil {
			continue
		}
		if err := s.cfg.Inject.Fire(faultinject.IngestCorrupt); err != nil {
			s.quarantine.Add(0, ev.EntryData, err)
			resp.Quarantined++
			continue
		}
		byShard[id] = b[:n+1]
		if n+1 == wireBatchCap {
			return id, http.StatusOK
		}
	}
}

// runLast runs the batches left when a body ends, at most one per
// shard, the way the cluster gate fans out its forwards: it takes the
// shard locks in shard order and starts each batch as its lock comes,
// on a goroutine of its own except the last, which runs on the request
// goroutine. The batches overlap only once a helper goroutine starts:
// on a 2-vCPU KVM guest serving the bench floods' two shards, a helper
// started a mean 140–180 µs after its batch was ready, and with binary
// bodies runLast took 484–516 µs a request with helpers against
// 505–542 µs with every batch on the request goroutine. It returns once every started batch has finished,
// with 0 or the status of a lock that could not be had (acquire); that
// batch and the ones after it did not run.
func (s *Server) runLast(ctx context.Context, byShard [][]raslog.Event, resp *IngestResponse) int {
	last := -1
	for id, b := range byShard {
		if len(b) > 0 {
			last = id
		}
	}
	at := time.Now()
	var wg sync.WaitGroup
	defer wg.Wait()
	for id, b := range byShard[:last+1] {
		if len(b) == 0 {
			continue
		}
		sh := s.shards[id]
		if refused := s.acquire(ctx, sh, resp); refused != 0 {
			return refused
		}
		resp.Accepted += int64(len(b))
		if id == last {
			s.process(sh, b, at)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.process(sh, b, at)
		}()
	}
	return 0
}

// acquire takes sh's lock for a batch of a request running under ctx,
// waiting up to ShedTimeout and the request deadline. It returns 0 once
// the lock is held; otherwise the request must stop, with resp's Error
// set and the status returned: 503 when the deadline cut the wait, or
// else a load-shed's 429.
func (s *Server) acquire(ctx context.Context, sh *shard, resp *IngestResponse) int {
	start := time.Now()
	defer func() { s.waitTime.Observe(time.Since(start)) }()
	select {
	case sh.sem <- struct{}{}:
		return 0
	default:
	}
	if s.cfg.ShedTimeout >= 0 {
		t := time.NewTimer(s.cfg.ShedTimeout)
		defer t.Stop()
		select {
		case sh.sem <- struct{}{}:
			return 0
		case <-t.C:
		case <-ctx.Done():
		}
	}
	if ctx.Err() != nil {
		s.deadlined.Add(1)
		resp.Error = "request deadline exceeded waiting for a busy shard"
		return http.StatusServiceUnavailable
	}
	s.shedTotal.Add(1)
	s.lastShed.Store(time.Now().UnixNano()) // for the degraded-mode window
	resp.Error = "shard busy past the shed timeout; retry with backoff"
	return http.StatusTooManyRequests
}

// handleAlerts serves the standing alarms and the recent-alert ring.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	var resp AlertsResponse
	resp.Standing = []Alert{}
	for i, sh := range s.shards {
		// One snapshot per shard: the standing alarm comes from the same
		// consistent view a checkpoint persists.
		snap := sh.engine().Snapshot()
		if alarm := snap.Standing; alarm != nil {
			resp.Standing = append(resp.Standing, Alert{
				Shard:      i,
				At:         alarm.At,
				Start:      alarm.Start,
				End:        alarm.End,
				Confidence: alarm.Confidence,
				Source:     alarm.Source,
				Detail:     alarm.Detail,
			})
		}
	}
	resp.Recent, resp.TotalAlerts, _ = s.history.Snapshot()
	edge.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness/readiness probe. A degraded service
// (a recent load-shed) still answers 200 — it is
// alive and partially serving — with "degraded": true for readiness
// policies that want to route around it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	degraded := s.degraded()
	status, code := "ok", http.StatusOK
	if degraded {
		status = "degraded"
	}
	if closed {
		status, code = "draining", http.StatusServiceUnavailable
	}
	// Standing alarms come from the same per-shard snapshot checkpoints
	// persist, so "drained but still carrying predictions" is visible
	// here exactly as it would be in a checkpoint.
	standing := 0
	for _, sh := range s.shards {
		if sh.engine().Snapshot().Standing != nil {
			standing++
		}
	}
	// Model identity rides along so a cluster gate's single health
	// probe doubles as its version check — one request instead of two
	// per backend per probe interval.
	model := s.model.Load()
	resp := map[string]any{
		"status":          status,
		"degraded":        degraded,
		"shards":          len(s.shards),
		"shard_restarts":  s.Restarts(),
		"standing_alarms": standing,
		"model_sha":       model.SHA256,
		"model_version":   model.Version,
		"uptime_seconds":  time.Since(s.start).Seconds(),
	}
	// The ledger head rides along so the cluster gate's health probe
	// doubles as its tamper check, and AuxHealth lets the daemon add
	// checkpoint freshness — a stalled Checkpointer shows up here, not
	// first in a post-crash data-loss window.
	if s.cfg.Ledger != nil {
		seq, root := s.cfg.Ledger.Head()
		resp["ledger_seq"] = seq
		resp["ledger_root"] = root
	}
	if s.cfg.AuxHealth != nil {
		s.cfg.AuxHealth(resp)
	}
	edge.WriteJSON(w, code, resp)
}
