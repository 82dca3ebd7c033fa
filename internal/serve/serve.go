// Package serve is the deployed form of the online prediction engine
// (paper §3.3): an HTTP service that ingests raw RAS records over
// POST /v1/ingest (newline-delimited pipe/NDJSON dialect, or the
// binary wire-frame format negotiated via
// Content-Type: application/x-bglbin), fans
// them out to N sharded online.Engine instances keyed by the
// rack/midplane prefix of each record's location, and exposes the
// resulting alarms over a pull endpoint (GET /v1/alerts), a push
// stream (GET /v1/alerts/stream, server-sent events), a health probe
// (GET /healthz), a quarantine inspection endpoint
// (GET /v1/quarantine), and a Prometheus-style text exposition
// (GET /metrics).
//
// Each shard owns one engine, one bounded channel, and one supervised
// goroutine; a full channel blocks the ingest handler briefly
// (backpressure), and a channel that stays full past the shed timeout
// fails the request with 429 instead of wedging the client. Records
// within one request preserve arrival order per shard, so each engine
// still sees its substream in CMCS log order.
//
// Resilience properties (see README "Failure modes and recovery"):
//
//   - A panic on a shard worker is isolated to that shard: the
//     supervisor rebuilds the engine from its last good state
//     snapshot and resumes the queue. Alerts already raised live in
//     the server-side history ring and are never lost; the standing
//     alarm survives inside the snapshot; at most SnapshotEvery
//     records of dedup/window evidence are lost per restart.
//   - Malformed or unclassifiable ingest lines are quarantined (a
//     bounded ring inspectable at /v1/quarantine) instead of failing
//     the batch or silently vanishing.
//   - Every ingest request runs under a deadline, and saturation is
//     shed with 429 plus a degraded flag on /healthz, so a stalled
//     shard degrades the service instead of accumulating wedged
//     connections.
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
	// QueueDepth is the per-shard channel capacity (default 1024),
	// counted in hand-offs: each element is one batch of up to
	// wireBatchCap records of one request, whatever the dialect. A full
	// queue blocks ingestion up to ShedTimeout: backpressure first,
	// load-shedding after.
	QueueDepth int
	// History is the capacity of the recent-alerts ring buffer served
	// by GET /v1/alerts (default 256).
	History int
	// QuarantineCap bounds the ring of malformed ingest records kept
	// for inspection at GET /v1/quarantine (default 128).
	QuarantineCap int
	// MinConfidence suppresses alerts below this confidence from the
	// alert surfaces (they still count as engine activity).
	MinConfidence float64
	// RequestTimeout bounds one POST /v1/ingest request end to end,
	// including queue waits and the completion barrier (default 60 s;
	// negative disables). An expired deadline answers 503 with the
	// records accepted so far.
	RequestTimeout time.Duration
	// ShedTimeout is how long one batch may wait on a saturated shard
	// queue before the request is shed with 429 (default 1 s; negative
	// sheds immediately when a queue is full).
	ShedTimeout time.Duration
	// SnapshotEvery is the shard supervisor's state-snapshot cadence
	// in records (default 1024), checked after each batch: a snapshot
	// is taken once at least this many records have gone by since the
	// last. It bounds what a shard panic can lose to those records plus
	// the batch in progress.
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
	// Version 1, LoadedAt now.
	Model ModelInfo
	// ShardBy, when set, overrides the default rack/midplane-modulo
	// shard routing: it receives the record's location and the shard
	// count and returns the shard index (reduced modulo the count).
	// The cluster layer uses it to make a single reference node
	// partition a stream exactly as a consistent-hash-routed gate
	// would, so the two can be compared alert-for-alert.
	ShardBy func(loc raslog.Location, shards int) int
	// Observer, when set, sees every record accepted by /v1/ingest, in
	// request order, on the request goroutine — the model-lifecycle
	// subsystem's tap for its sliding retraining window. It must be
	// cheap and must not block. It runs while the server's close lock
	// is held for reading, so it must not call back into the Server:
	// calling Close from it deadlocks.
	Observer func(raslog.Event)
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
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
// degraded (the queue may drain instantly; the signal should not).
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
	// Accepted counts records decoded and enqueued by this request.
	Accepted int64 `json:"accepted"`
	// Quarantined counts this request's undecodable (or
	// fault-injected-corrupt) lines, parked in the quarantine ring
	// instead of failing the batch.
	Quarantined int64 `json:"quarantined,omitempty"`
	// RejectedTotal is the server-lifetime count of records rejected
	// by an engine (out of log order).
	RejectedTotal int64 `json:"rejected_total"`
	// Error describes what stopped the request early, if anything: a
	// stream-level read failure (400), a saturated shard (429), or an
	// expired request deadline (503). Per-line decode failures no
	// longer stop a request; they quarantine.
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

// shardMsg is one unit of work on a shard channel: a batch of records
// (never empty), or a barrier when done is non-nil.
type shardMsg struct {
	evs  []raslog.Event
	at   time.Time // enqueue time, for the ingest-latency histogram
	done *sync.WaitGroup
}

// shard is one engine plus its feed. The engine lives behind an
// atomic pointer because the supervisor replaces it wholesale when a
// panic escapes the worker: observability readers must never see a
// half-dead engine (whose internal mutex a panic may have wedged).
type shard struct {
	id       int
	ch       chan shardMsg
	eng      atomic.Pointer[online.Engine]
	rejected atomic.Int64 // records the engine refused (out of order)
	restarts atomic.Int64 // supervisor restarts after worker panics

	// lastGood is the supervisor's most recent consistent engine-state
	// snapshot — what a restart restores from. Written by the shard
	// goroutine, read by the supervisor on the same goroutine after a
	// recover, and refreshed by RestoreShards at startup.
	lastGood  atomic.Pointer[online.State]
	sinceSnap int // records since lastGood; shard goroutine only
}

func (sh *shard) engine() *online.Engine { return sh.eng.Load() }

// Server is the sharded prediction service. It implements
// http.Handler; Close drains the shards.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	shards []*shard
	wg     sync.WaitGroup

	// meta is the currently served trained model; the supervisor reads
	// it when rebuilding a crashed shard's engine, and SwapModel
	// publishes retrained models through it before touching engines.
	meta atomic.Pointer[predictor.Meta]

	// closeMu is held shared by in-flight ingest requests and
	// exclusively by Close, so shard channels never see a send after
	// close.
	closeMu sync.RWMutex
	closed  bool

	start      time.Time
	parseErrs  atomic.Int64
	ingestReqs atomic.Int64
	shedTotal  atomic.Int64
	lastShed   atomic.Int64 // unixnano of the most recent shed, 0 if none
	deadlined  atomic.Int64 // ingest requests cut short by their deadline
	latency    *edge.Histogram

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
		latency:    edge.NewHistogram(latencyBounds),
		history:    edge.NewRing[Alert](cfg.History),
		quarantine: NewQuarantine(cfg.QuarantineCap),
		broker:     edge.NewBroker[Alert](),
	}
	s.meta.Store(meta)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, ch: make(chan shardMsg, cfg.QueueDepth)}
		sh.eng.Store(s.newEngine(i))
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.runShard(sh)
	}
	info := cfg.Model
	if info.Version == 0 {
		info.Version = 1
	}
	if info.LoadedAt.IsZero() {
		info.LoadedAt = s.start
	}
	if info.Predictors == nil {
		info.Predictors = meta.BaseNames()
	}
	s.model.Store(&info)
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
	return online.New(s.meta.Load(), online.Config{
		Window:  s.cfg.Window,
		OnAlert: s.onAlert(i),
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains and stops the shards: in-flight ingest requests finish,
// the queues run dry, and the SSE subscribers are disconnected. The
// server rejects new ingestion afterwards; read endpoints keep
// working. Close is idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.closeMu.Unlock()
	s.wg.Wait() // drain: every queued record reaches its engine
	s.broker.Close()
	return nil
}

// runShard supervises the per-shard worker: shardLoop owns all
// ingestion into one engine, and any panic that escapes it — an
// engine bug, a poisonous record, an injected fault — is contained
// here. The supervisor discards the suspect engine (a panic mid-step
// can leave its internal mutex held), rebuilds a fresh one over the
// current model, restores the last good state snapshot, and resumes
// the same queue. Alerts already published live in the server-side
// history ring, so none are lost; the standing alarm rides inside the
// snapshot; at most SnapshotEvery records of compression/window
// evidence are lost per restart.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	for !s.shardLoop(sh) {
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
}

// shardLoop consumes the shard queue until it closes (returning true)
// or a panic escapes a message (returning false to the supervisor).
func (s *Server) shardLoop(sh *shard) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			clean = false
		}
	}()
	for msg := range sh.ch {
		if msg.done != nil {
			msg.done.Done()
			continue
		}
		_ = s.cfg.Inject.Fire(faultinject.ShardSlow) // delay-only point
		// One lock acquisition and one latency observation per batch.
		if rej := sh.engine().IngestBatch(msg.evs); rej > 0 {
			sh.rejected.Add(rej)
		}
		sh.sinceSnap += len(msg.evs)
		recycleBatch(msg.evs)
		s.latency.Observe(time.Since(msg.at))
		if sh.sinceSnap >= s.cfg.SnapshotEvery {
			st := sh.engine().State()
			sh.lastGood.Store(&st)
			sh.sinceSnap = 0
		}
		// The panic point sits after the snapshot update, so an
		// injected crash at SnapshotEvery=1 (a snapshot after every
		// batch) is provably lossless — the chaos acceptance test's
		// exact-continuity half.
		_ = s.cfg.Inject.Fire(faultinject.ShardPanic)
	}
	return true
}

// Restarts sums supervisor restarts across shards.
func (s *Server) Restarts() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.restarts.Load()
	}
	return n
}

// onAlert builds the engine callback for shard i. It runs on the
// shard goroutine, outside the engine's state lock.
func (s *Server) onAlert(i int) func(predictor.Warning) {
	return func(w predictor.Warning) {
		if w.Confidence < s.cfg.MinConfidence {
			return
		}
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
// locations go to shard 0.
func (s *Server) shardFor(loc raslog.Location) *shard {
	if s.cfg.ShardBy != nil {
		i := s.cfg.ShardBy(loc, len(s.shards)) % len(s.shards)
		if i < 0 {
			i += len(s.shards)
		}
		return s.shards[i]
	}
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
// load within the last degradedHold, or a shard queue is saturated
// right now. Surfaced on /healthz and /metrics so operators (and load
// balancers doing readiness) see saturation before clients see 429s.
func (s *Server) degraded() bool {
	if last := s.lastShed.Load(); last != 0 && time.Since(time.Unix(0, last)) < degradedHold {
		return true
	}
	for _, sh := range s.shards {
		if len(sh.ch) >= cap(sh.ch) {
			return true
		}
	}
	return false
}

// noteShed records a load-shed for the degraded-mode window.
func (s *Server) noteShed() {
	s.shedTotal.Add(1)
	s.lastShed.Store(time.Now().UnixNano())
}

// handleIngest streams the request body through its dialect's decoder,
// routing each record to its shard. Undecodable ones are quarantined,
// not fatal. The reply is written only after every record of this
// request has been processed by its engine (a per-shard barrier), so a
// 200 means the alert surfaces reflect the batch. The whole request
// runs under RequestTimeout; a saturated shard sheds with 429.
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
	touched := make([]bool, len(s.shards))
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
		code = s.ingest(ctx, dec, &resp, touched)
		dec.Reset(eofReader{}) // drop the body reference before pooling
		wireDecoders.Put(dec)
	} else {
		src := textSources.Get().(*textSource)
		src.rd.Reset(body)
		src.rd.Lenient(func(le raslog.LineError) {
			s.quarantine.Add(le.Line, le.Raw, le.Err)
			resp.Quarantined++
		})
		code = s.ingest(ctx, src, &resp, touched)
		src.rd.Reset(eofReader{})
		src.ev = raslog.Event{}
		textSources.Put(src)
	}

	// Barrier: wait until each touched shard has drained this
	// request's records, bounded by the request deadline (enqueued
	// records are processed regardless; the deadline only stops the
	// confirmation wait).
	if !s.barrier(ctx, touched) && code == http.StatusOK {
		s.deadlined.Add(1)
		resp.Error = "request deadline exceeded before all records were confirmed"
		code = http.StatusServiceUnavailable
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
	textSources = sync.Pool{
		New: func() any { return &textSource{rd: raslog.NewReader(eofReader{})} },
	}
)

// eofReader is the parked state of a pooled decoder (no body retained).
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// recordSource is a body decoder as the ingest loop drives it, one
// record at a time: NextEvent decodes the next record's location —
// io.EOF at the clean end, or a stream-level error — and DecodeEvent
// the rest of it into the batch slot the loop picked by that location.
// A record DecodeEvent fails has gone to quarantine through the
// decoder's hook. *raslog.WireDecoder is one; textSource the other.
type recordSource interface {
	NextEvent() (raslog.Location, error)
	DecodeEvent(*raslog.Event) error
}

// textSource gives the newline-delimited dialects (pipe and NDJSON) the
// wire decoder's shape. A line yields its location only once it is
// parsed whole, so DecodeEvent copies the parsed record into the slot:
// the one copy the text dialect pays.
type textSource struct {
	rd *raslog.Reader
	ev raslog.Event
}

func (t *textSource) NextEvent() (raslog.Location, error) {
	var err error
	t.ev, err = t.rd.Read()
	return t.ev.Location, err
}

func (t *textSource) DecodeEvent(ev *raslog.Event) error {
	*ev = t.ev
	return nil
}

// wireBatchCap bounds a per-shard event batch: large enough to
// amortize the channel send and the engine-lock acquisition over
// thousands of records, small enough that pooled buffers stay warm and
// batch memory per request stays bounded. A request hands a shard a
// batch when the batch fills, which for a body carrying fewer than
// wireBatchCap records of that shard — every 4096-record bench body —
// is only at the end of the body: the engines then work after the
// decode, not beside it. Smaller batches to overlap the two do not pay
// on two cores (EXPERIMENTS.md, "512-record hand-offs").
const wireBatchCap = 4096

// eventBatches recycles per-shard batch buffers between the ingest
// loop (producer) and the shard loops (consumer). Growing a fresh
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
// pooled capacity return; oddballs fall to the GC.
func recycleBatch(evs []raslog.Event) {
	if cap(evs) != wireBatchCap {
		return
	}
	evs = evs[:0]
	eventBatches.Put(&evs)
}

// ingest is the one ingest loop. It pulls the body's records one at a
// time from src, decodes each in place at the end of its shard's pooled
// batch, and hands a batch to its shard queue when it reaches
// wireBatchCap or the body ends. Undecodable records have gone to
// quarantine through the decoder's hook; a stream-level failure stops
// the request with 400 after the intact prefix is delivered. Returns
// the HTTP status.
//
//bglvet:hotpath
func (s *Server) ingest(ctx context.Context, src recordSource, resp *IngestResponse, touched []bool) int {
	code := http.StatusOK
	byShard := make([][]raslog.Event, len(s.shards))
	// flush hands shard id's batch (never empty) to its queue; false
	// means the request must shed.
	flush := func(id int) bool {
		batch := byShard[id]
		byShard[id] = nil // ownership moves to the shard
		sh := s.shards[id]
		msg := shardMsg{evs: batch, at: time.Now()}
		select {
		case sh.ch <- msg:
		default:
			// Queue full: backpressure for up to ShedTimeout, then shed.
			if !s.enqueueSlow(ctx, sh, msg) {
				return false
			}
		}
		touched[id] = true
		resp.Accepted += int64(len(batch))
		return true
	}
	for {
		loc, err := src.NextEvent()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Stream-level failure (corrupt frame, oversized line, body
				// read error): nothing after this point is decodable.
				s.parseErrs.Add(1)
				resp.Error = err.Error()
				code = http.StatusBadRequest
			}
			break
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
		if s.cfg.Observer != nil {
			// closeMu.RLock is held for the whole request. Observer is
			// contractually cheap, non-blocking and must not call back into
			// the server; invoking it here (not after unlock) is what gives
			// it records in request order.
			s.cfg.Observer(*ev)
		}
		byShard[id] = b[:n+1]
		if n+1 == wireBatchCap && !flush(id) {
			code = s.enqueueFailed(ctx, resp)
			break
		}
	}
	// Deliver the partial batches — including ahead of a stream-level
	// failure, where every record of the intact prefix still counts.
	for id, b := range byShard {
		if len(b) == 0 {
			recycleBatch(b) // every record of it went to quarantine
			continue
		}
		if !flush(id) {
			code = s.enqueueFailed(ctx, resp)
			break
		}
	}
	return code
}

// enqueueFailed classifies why a batch could not be enqueued, updating
// the response, and returns the HTTP status.
func (s *Server) enqueueFailed(ctx context.Context, resp *IngestResponse) int {
	if ctx.Err() != nil {
		s.deadlined.Add(1)
		resp.Error = "request deadline exceeded"
		return http.StatusServiceUnavailable
	}
	s.noteShed()
	resp.Error = "shard queue saturated; retry with backoff"
	return http.StatusTooManyRequests
}

// enqueueSlow waits up to ShedTimeout (and the request deadline) for
// room on a saturated shard queue; false means the batch did not land
// and the request should shed.
func (s *Server) enqueueSlow(ctx context.Context, sh *shard, msg shardMsg) bool {
	if s.cfg.ShedTimeout < 0 {
		return false
	}
	t := time.NewTimer(s.cfg.ShedTimeout)
	defer t.Stop()
	select {
	case sh.ch <- msg:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// barrier enqueues a completion token on every touched shard and
// waits for all of them, bounded by ctx. It returns false if the
// deadline expired before confirmation.
func (s *Server) barrier(ctx context.Context, touched []bool) bool {
	var wg sync.WaitGroup
	for i, t := range touched {
		if !t {
			continue
		}
		wg.Add(1)
		select {
		case s.shards[i].ch <- shardMsg{done: &wg}:
		case <-ctx.Done():
			wg.Done() // token never enqueued; don't wait for it
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return ctx.Err() == nil
	case <-ctx.Done():
		return false
	}
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
// (recent load-shed or a saturated queue) still answers 200 — it is
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
	// Queue depth and model identity ride along so a cluster gate's
	// single health probe doubles as its version check — one request
	// instead of two per backend per probe interval.
	queued := 0
	for _, sh := range s.shards {
		queued += len(sh.ch)
	}
	model := s.model.Load()
	resp := map[string]any{
		"status":          status,
		"degraded":        degraded,
		"shards":          len(s.shards),
		"queued":          queued,
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
