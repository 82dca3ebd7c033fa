package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/faultinject"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// Config parameterizes a Gate. Backends is required; everything else
// has serving defaults.
type Config struct {
	// Backends are the bglserved base URLs (e.g. http://10.0.0.1:8650)
	// forming the cluster. They are also the ring member identities,
	// so keeping a backend's URL stable across restarts keeps its hash
	// ranges stable.
	Backends []string
	// VNodes is the virtual-node count per backend on the consistent-
	// hash ring (default 128).
	VNodes int
	// ProbeInterval is the background health-probe cadence once Start
	// has been called (default 2 s). ProbeTimeout bounds one probe
	// (default 2 s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ForwardTimeout bounds one ingest forward or read fan-out request
	// against a backend (default 30 s).
	ForwardTimeout time.Duration
	// ReloadTimeout bounds one backend's POST /v1/model/reload during
	// a rolling swap — reloads retrain, so this is generous (default
	// 5 min).
	ReloadTimeout time.Duration
	// ReplayCap and ReplayWindow bound each backend's replay buffer
	// (defaults 64k records, 1 h of event time) — the Recorder-window
	// pattern applied to delivery.
	ReplayCap    int
	ReplayWindow time.Duration
	// StreamHeartbeat is the SSE comment-heartbeat interval on the
	// gate's GET /v1/alerts/stream (default 15 s; negative disables).
	StreamHeartbeat time.Duration
	// StreamRetry is the pause before resubscribing to a backend's
	// alert stream after a disconnect (default 2 s).
	StreamRetry time.Duration
	// Client serves probes, forwards, read fan-outs and the long-lived
	// SSE subscriptions (default: a fresh http.Client). It must carry
	// no client-level timeout, which would cut the subscriptions;
	// timeouts ride on per-request contexts.
	Client *http.Client
	// Logf, when set, receives operational log lines. It must be safe
	// for concurrent use: a request's forwards run side by side, beside
	// the prober.
	Logf func(format string, args ...any)
	// Inject is the fault-injection harness consulted at the gate's
	// fault points (forward timeout, partial response, probe flap).
	// Nil — the production configuration — costs a pointer compare.
	Inject *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 5 * time.Minute
	}
	if c.StreamHeartbeat == 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.StreamRetry <= 0 {
		c.StreamRetry = 2 * time.Second
	}
	return c
}

// gateQuarantineCap bounds the gate's own quarantine ring.
const gateQuarantineCap = 128

// IngestResponse is the body of a POST /v1/ingest reply from the
// gate. Accepted mirrors the single-node field (bglreplay keys on
// it): every record the gate took responsibility for, whether
// delivered now or parked for replay. A line the gate quarantined is
// not accepted.
type IngestResponse struct {
	Accepted int64 `json:"accepted"`
	// Routed records were delivered to their owner backend during this
	// request; Buffered records were parked in a replay buffer because
	// the owner was unroutable (they will be re-delivered on
	// recovery).
	Routed   int64 `json:"routed"`
	Buffered int64 `json:"buffered"`
	// Quarantined counts the text lines the gate parked in its own
	// quarantine plus what the touched backends quarantined out of this
	// request's batches.
	Quarantined int64 `json:"quarantined,omitempty"`
	// RejectedTotal is the best-effort sum of the touched backends'
	// lifetime out-of-order rejection counts.
	RejectedTotal int64 `json:"rejected_total"`
	// Error describes a stream-level read failure that stopped the
	// request early (the lines before it were still routed).
	Error string `json:"error,omitempty"`
}

// Gate is the cluster ingest router. It implements http.Handler with
// the same surface a single bglserved exposes — POST /v1/ingest,
// GET /v1/alerts, GET /v1/alerts/stream, POST /v1/model/reload,
// /healthz, /metrics — plus GET /v1/cluster/status, so a load
// generator or operator cannot tell one node from a cluster.
type Gate struct {
	cfg          Config
	mux          *http.ServeMux
	ring         *Ring
	backends     []*backend // in ring.Members() order
	unknownOwner int        // ring owner of the unknown-location key
	scratch      sync.Pool  // of *routeScratch
	client       *http.Client
	start        time.Time

	// mu guards the cluster-wide agreement state.
	mu        sync.Mutex
	agreedSHA string
	swapping  bool

	ingestReqs  atomic.Int64
	parseErrs   atomic.Int64
	swaps       atomic.Int64
	reloadFails atomic.Int64
	streamSeq   atomic.Int64 // gate-assigned SSE event ids
	streamsUp   atomic.Int64 // live fan-in subscriptions to backend streams
	tampered    atomic.Int64 // backends flagged tampered by ledger checks

	// routeTime is each ingest request's time up to its first forward:
	// the body read, text transcoding and the routing scan.
	routeTime *edge.Histogram

	// quarantine holds the text lines that never become wire records:
	// lines that do not decode, and records the wire cannot carry, each
	// under the client's line number. Backends keep their own rings for
	// corrupt records inside the wire frames that reach them.
	quarantine *serve.Quarantine
	broker     *edge.Broker[Alert]

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started sync.Once
	closed  sync.Once
}

// New builds a gate over the configured backends. Backends start
// optimistically routable (state up) so ingest works before the first
// probe lands; call Start for background probing or ProbeNow for a
// synchronous sweep.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	members := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		b := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q is not an absolute URL", raw)
		}
		members = append(members, b)
	}
	ring := NewRing(members, cfg.VNodes)
	if len(ring.Members()) != len(members) {
		return nil, fmt.Errorf("cluster: duplicate backend URLs in %v", members)
	}

	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	g := &Gate{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		ring:       ring,
		client:     client,
		start:      time.Now(),
		routeTime:  edge.NewHistogram(edge.LatencyBounds),
		quarantine: serve.NewQuarantine(gateQuarantineCap),
		broker:     edge.NewBroker[Alert](),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	for _, m := range ring.Members() {
		g.backends = append(g.backends, &backend{
			url:         m,
			state:       StateUp,
			replay:      newReplayBuffer(cfg.ReplayCap, cfg.ReplayWindow),
			forwardTime: edge.NewHistogram(edge.LatencyBounds),
		})
	}
	g.unknownOwner = ring.OwnerIndex("?")
	g.scratch.New = func() any {
		return &routeScratch{
			owners: make([]ownerBatch, len(g.backends)),
			subs:   make([]subFrame, len(g.backends)),
		}
	}
	g.mux.HandleFunc("POST /v1/ingest", g.handleIngest)
	g.mux.Handle("GET /v1/quarantine", g.quarantine)
	g.mux.HandleFunc("GET /v1/alerts", g.handleAlerts)
	// The merged stream is the union of every backend's live alert
	// stream in a single node's wire format: ids are gate-assigned, and
	// each event's JSON carries its backend of origin.
	g.mux.HandleFunc("GET /v1/alerts/stream", func(w http.ResponseWriter, r *http.Request) {
		g.broker.ServeSSE(w, r, cfg.StreamHeartbeat, func(Alert) int64 { return g.streamSeq.Add(1) })
	})
	g.mux.HandleFunc("GET /v1/cluster/status", g.handleStatus)
	g.mux.HandleFunc("POST /v1/model/reload", g.handleReload)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Ring returns the gate's consistent-hash ring, so tests and tools
// can reproduce its key-to-backend assignment exactly.
func (g *Gate) Ring() *Ring { return g.ring }

// Start launches the background loops: the periodic health prober and
// one SSE fan-in subscriber per backend. Tests that need determinism
// skip Start and call ProbeNow at chosen points instead. Idempotent.
func (g *Gate) Start() {
	g.started.Do(func() {
		g.wg.Add(1)
		go g.probeLoop()
		for _, b := range g.backends {
			g.wg.Add(1)
			go g.streamLoop(b)
		}
	})
}

// Close stops the background loops and disconnects the gate's SSE
// subscribers. Buffered replay lines are abandoned (the gate is going
// away; its at-least-once window ends here). Idempotent.
func (g *Gate) Close() error {
	g.closed.Do(func() {
		g.cancel()
		g.wg.Wait()
		g.broker.Close()
	})
	return nil
}

func (g *Gate) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func (g *Gate) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
			g.ProbeNow()
		}
	}
}

// handleIngest groups the request's records by their ring owner and
// delivers each owner's group in one forwarded wire POST, all owners at
// once: the hop costs the slowest backend, not the sum of them. Binary
// wire bodies (Content-Type application/x-bglbin) take the
// pass-through path, which peeks only each record's location prefix
// and forwards the raw bytes; text bodies are transcoded to wire frames
// at the door and take the same path (ingestText). Records owned by an
// unroutable backend park in its replay buffer — accepted, not
// dropped. A text line that does not decode, or whose record the wire
// cannot carry, is not accepted: it parks in the gate's own
// /v1/quarantine under the client's line number.
func (g *Gate) handleIngest(w http.ResponseWriter, r *http.Request) {
	g.ingestReqs.Add(1)

	s := g.scratch.Get().(*routeScratch)
	defer g.release(s)
	var resp IngestResponse
	var code int
	start := time.Now()
	if r.Header.Get("Content-Type") == raslog.WireContentType {
		code = g.ingestWire(r.Body, &resp, s)
	} else {
		code = g.ingestText(r.Body, &resp, s)
	}
	g.routeTime.Observe(time.Since(start))

	// Everything order-sensitive happens here, on the request
	// goroutine, walking the owners in ring order: whether a batch may
	// go out directly or parks behind a backlog, and the injected-fault
	// verdicts of each batch that goes — so a seeded fault schedule
	// replays identically however the concurrent forwards interleave.
	sends := s.sends[:0]
	for i := range s.owners {
		ob := &s.owners[i]
		if len(ob.marks) == 0 {
			continue
		}
		if !g.backends[i].admit(ob) {
			resp.Buffered += ob.n
			continue
		}
		sends = append(sends, send{b: g.backends[i], ob: ob, faults: g.drawForwardFaults()})
	}
	s.sends = sends
	var wg sync.WaitGroup
	for i := range sends {
		sd := &sends[i]
		if i == len(sends)-1 {
			g.deliver(sd) // the last one needs no goroutine
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.deliver(sd)
		}()
	}
	wg.Wait()
	for i := range sends {
		sd := &sends[i]
		if sd.parked {
			resp.Buffered += sd.ob.n
			continue
		}
		resp.Routed += sd.ob.n
		if sd.ir != nil {
			resp.Quarantined += sd.ir.Quarantined
			resp.RejectedTotal += sd.ir.RejectedTotal
		}
	}
	resp.Accepted = resp.Routed + resp.Buffered
	edge.WriteJSON(w, code, resp)
}

// routeScratch is one ingest request's working memory, pooled per gate
// so a steady stream of bodies routes without allocating: the wire
// scanner with its read and payload buffers, the text path's reader and
// wire writer, one batch per backend in ring order, and the wire scan's
// per-frame state.
type routeScratch struct {
	sc      *raslog.WireScanner // made by the first body
	rd      *raslog.Reader      // made by the first text body, with ww
	ww      *raslog.WireWriter  // emits into frames
	frames  bytes.Buffer        // the frame ww cut last, until it is routed
	owners  []ownerBatch
	subs    []subFrame
	strRecs [][]byte        // the current frame's string records, source order
	loc     raslog.Location // the routing key the scan peeked last
	sends   []send
}

// subFrame is the wire scan's progress on one owner's share of the
// source frame in hand; n == 0 means the owner has none yet.
type subFrame struct {
	start     int // where the sub-frame's header begins in the owner's buf
	payloadAt int // where its payload begins
	n         int
	dated     bool  // some record of it peeked, so last holds a time
	last      int64 // its newest peeked time, unix seconds
	strings   int   // source string records copied so far
}

// newest is the sub-frame's newest record time: zero when none of its
// records peeked, as the replay backlog reads an entry it cannot date.
func (sub *subFrame) newest() time.Time {
	if !sub.dated {
		return time.Time{}
	}
	return time.Unix(sub.last, 0).UTC()
}

// send is one direct forward of a request's fan-out: what goes to whom
// under which fault verdicts and, once delivered, how it went.
type send struct {
	b      *backend
	ob     *ownerBatch
	faults forwardFaults
	parked bool                  // the forward failed and the batch parked
	ir     *serve.IngestResponse // the backend's ack; nil when parked or cut
}

// scratchKeep is the largest per-owner buffer a pooled scratch may
// hold on to; one oversized body must not pin its size in the pool.
const scratchKeep = 4 << 20

// release returns a scratch to the pool, emptied — or, grown past
// scratchKeep, leaves it to the collector. Every forward has returned
// by now, and forward does not return before the transport is done
// with the bytes it was lent.
func (g *Gate) release(s *routeScratch) {
	for i := range s.owners {
		if cap(s.owners[i].buf) > scratchKeep {
			return
		}
	}
	s.reset()
	g.scratch.Put(s)
}

// reset empties the scratch for the next request, keeping its buffers.
func (s *routeScratch) reset() {
	if s.sc != nil {
		s.sc.Reset(http.NoBody) // do not pin the request body
	}
	if s.rd != nil {
		s.rd.Reset(http.NoBody)
	}
	for i := range s.owners {
		ob := &s.owners[i]
		ob.buf, ob.marks, ob.n = ob.buf[:0], ob.marks[:0], 0
	}
	clear(s.sends)
}

// ingestText transcodes a newline-delimited body to wire frames at the
// door. It decodes the body with the lenient reader a backend uses,
// encodes each record with a wire writer, and routes every frame the
// writer cuts through ingestWire, as if the client had sent it — so
// transcoding holds at most one frame (the writer's 1 MiB cut) beside
// the owner batches. A line that does not decode, or a record the writer
// refuses, parks in the gate's quarantine under the client's line
// number. Returns the HTTP status.
func (g *Gate) ingestText(body io.Reader, resp *IngestResponse, s *routeScratch) int {
	if s.rd == nil {
		s.rd = raslog.NewReader(body)
		s.ww = raslog.NewWireWriter(&s.frames)
	} else {
		s.rd.Reset(body)
	}
	s.rd.Lenient(func(le raslog.LineError) {
		g.quarantine.Add(le.Line, le.Raw, le.Err)
		resp.Quarantined++
	})
	code := http.StatusOK
	for {
		ev, err := s.rd.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Stream-level failure: nothing after this point decodes.
				g.parseErrs.Add(1)
				resp.Error = err.Error()
				code = http.StatusBadRequest
			}
			break
		}
		if err := s.ww.Write(&ev); err != nil {
			g.quarantine.Add(s.rd.Line(), s.rd.Raw(), err)
			resp.Quarantined++
			continue
		}
		if s.frames.Len() > 0 { // the writer cut a frame
			g.ingestWire(&s.frames, resp, s)
		}
	}
	// Writes into a bytes.Buffer cannot fail, and the frames they make
	// always walk, so neither call has an error to report.
	s.ww.Flush()
	g.ingestWire(&s.frames, resp, s)
	return code
}

// ingestWire routes a binary wire body without decoding events, one
// source frame at a time (routeFrame). Returns the HTTP status.
func (g *Gate) ingestWire(body io.Reader, resp *IngestResponse, s *routeScratch) int {
	if s.sc == nil {
		s.sc = raslog.NewWireScanner(body)
	} else {
		s.sc.Reset(body)
	}
	for {
		f, err := s.sc.Next()
		if err == nil {
			err = s.routeFrame(f, g.ring, g.unknownOwner)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return http.StatusOK
			}
			// A corrupt header or an unwalkable record stream: nothing
			// after it is trustworthy (the frames before it were routed).
			g.parseErrs.Add(1)
			resp.Error = err.Error()
			return http.StatusBadRequest
		}
	}
}

// routeFrame splits one source frame among the ring owners of its
// events: it peeks each event record's location prefix to pick the
// owner and appends the raw record bytes to a sub-frame growing in
// place at the end of that owner's batch — string-table adds are
// copied in source order as a prefix of each sub-frame, so positional
// indices stay valid — under the source frame's header bases. Event
// records whose prefix cannot be peeked — an unreadable location, or a
// time every backend refuses — route to the unknown-location owner,
// whose backend decoder quarantines them. Each record is copied once,
// to where its forward will read it from, and each sub-frame keeps its
// newest peeked time in unix seconds until it is marked. If the frame
// turns out unwalkable, none of it is routed.
//
//bglvet:hotpath
func (s *routeScratch) routeFrame(f *raslog.WireFrame, ring *Ring, unknownOwner int) error {
	s.strRecs = s.strRecs[:0]
	clear(s.subs)
	//bglvet:ignore hotpathalloc Records only calls the literal, so it stays on this stack; TestRouteFrameZeroAllocs pins it
	err := f.Records(func(tag byte, raw, content []byte) error {
		if tag == raslog.WireTagString {
			s.strRecs = append(s.strRecs, raw)
			return nil
		}
		owner := unknownOwner
		dsec, perr := raslog.PeekWireRoute(content, f.BaseSec, &s.loc)
		if perr == nil {
			owner = ring.ownerIndexAt(&s.loc)
		}
		ob, sub := &s.owners[owner], &s.subs[owner]
		if sub.n == 0 {
			// A sub-frame's payload is not known until the walk ends, but
			// it cannot outgrow the source's: a header stamped with that
			// length reserves a length field wide enough to patch.
			sub.start = len(ob.buf)
			ob.buf = raslog.AppendWireFrameHeader(ob.buf, f.BaseSec, f.BaseRecID, len(f.Payload))
			sub.payloadAt = len(ob.buf)
		}
		// Catch up string records this sub-frame hasn't copied yet:
		// adds precede the events that reference them, so copying the
		// source-order prefix keeps every index in raw valid.
		for ; sub.strings < len(s.strRecs); sub.strings++ {
			ob.buf = append(ob.buf, s.strRecs[sub.strings]...)
		}
		ob.buf = append(ob.buf, raw...)
		sub.n++
		if sec := f.BaseSec + dsec; perr == nil && (!sub.dated || sec > sub.last) {
			sub.dated, sub.last = true, sec
		}
		return nil
	})
	room := uvarintLen(len(f.Payload))
	for i := range s.subs {
		ob, sub := &s.owners[i], &s.subs[i]
		if sub.n == 0 {
			continue
		}
		if err != nil {
			ob.buf = ob.buf[:sub.start]
			continue
		}
		// Patch the real payload length in. When it needs fewer bytes
		// than were reserved (a small share of a large frame), the
		// payload moves down to meet it, so the batch stays gap-free.
		plen := len(ob.buf) - sub.payloadAt
		lenAt, w := sub.payloadAt-room, uvarintLen(plen)
		if w < room {
			copy(ob.buf[lenAt+w:], ob.buf[sub.payloadAt:])
			ob.buf = ob.buf[:lenAt+w+plen]
		}
		binary.PutUvarint(ob.buf[lenAt:], uint64(plen))
		ob.mark(sub.newest(), sub.n)
	}
	return err
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// admit decides, under the backend's lock, whether a request's batch
// may be forwarded directly: only to a routable backend with an empty
// backlog and no drain in flight. Otherwise it parks the batch — a
// non-empty backlog forces new records behind it, so order holds
// either way — and reports false.
func (b *backend) admit(ob *ownerBatch) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state.routable() && !b.draining && b.replay.len() == 0 {
		return true
	}
	b.parkLocked(ob.entries())
	return false
}

// parkLocked appends entries to the replay backlog; b.mu held. All
// counts are records, not entries — a wire-frame entry carries many.
func (b *backend) parkLocked(entries []replayEntry) {
	for _, e := range entries {
		b.replay.append(e)
	}
	b.rerouted.Add(countRecords(entries))
}

// deliver forwards one admitted batch and records the outcome in sd. A
// failed forward marks the backend down and parks the batch instead of
// dropping it. It touches only its own backend and its own send, so a
// request's deliveries run side by side.
func (g *Gate) deliver(sd *send) {
	b := sd.b
	ir, err := g.forward(b, sd.ob.buf, sd.faults)
	if err != nil {
		b.forwardErrs.Add(1)
		b.mu.Lock()
		b.markDownLocked(err)
		b.parkLocked(sd.ob.entries())
		b.mu.Unlock()
		g.logf("backend %s: forward failed, %d records parked for replay: %v", b.url, sd.ob.n, err)
		sd.parked = true
		return
	}
	b.routed.Add(sd.ob.n)
	sd.ir = ir
}

// forwardFaults are one forward's injected-fault verdicts. The caller
// draws them, so that forwards running concurrently still consume a
// seeded schedule in a fixed order.
type forwardFaults struct {
	down    error // fail before any bytes leave the gate
	partial error // cut the acknowledgment after the status line
}

func (g *Gate) drawForwardFaults() forwardFaults {
	ff := forwardFaults{down: g.cfg.Inject.Fire(faultinject.GateForwardDown)}
	if ff.down == nil {
		ff.partial = g.cfg.Inject.Fire(faultinject.GateForwardPartial)
	}
	return ff
}

// lentBody is a forward's request body: a reader over bytes the caller
// lends for the length of the call, which reports when the transport
// is done with them.
type lentBody struct {
	bytes.Reader
	once sync.Once
	done func()
}

func (lb *lentBody) Close() error {
	lb.once.Do(lb.done)
	return nil
}

// forward POSTs concatenated wire frames to a backend's /v1/ingest as
// application/x-bglbin, reading them straight out of the caller's
// bytes, which it borrows until it returns. A nil error means the body
// was delivered; a nil response with a nil error means delivered but
// the acknowledgment was lost (partial response — the 200 status line
// is the delivery receipt).
func (g *Gate) forward(b *backend, body []byte, ff forwardFaults) (*serve.IngestResponse, error) {
	if ff.down != nil {
		return nil, fmt.Errorf("forward to %s: %w", b.url, ff.down)
	}
	start := time.Now()
	defer func() { b.forwardTime.Observe(time.Since(start)) }()
	// The transport may go on reading a request body after Do has
	// returned (RoundTrip promises only to close it, possibly later and
	// from another goroutine), and callers reuse body as soon as forward
	// returns — so it returns only once every reader handed out is closed.
	var lent sync.WaitGroup
	defer lent.Wait()
	lend := func() (io.ReadCloser, error) {
		lent.Add(1)
		lb := &lentBody{done: lent.Done}
		lb.Reset(body)
		return lb, nil
	}
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/ingest", nil)
	if err != nil {
		return nil, err
	}
	req.Body, _ = lend()
	req.ContentLength = int64(len(body))
	req.GetBody = lend // a stale keep-alive connection retries with a fresh reader
	req.Header.Set("Content-Type", raslog.WireContentType)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if ff.partial != nil {
		data, readErr = data[:len(data)/2], io.ErrUnexpectedEOF
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("forward to %s: %s: %.200s", b.url, resp.Status, data)
	}
	var ir serve.IngestResponse
	if readErr != nil || json.Unmarshal(data, &ir) != nil {
		// The backend answered 200, so the batch landed; only the ack
		// body was cut. Count it, trust the status line, do not replay
		// (replaying would double-deliver).
		b.partials.Add(1)
		return nil, nil
	}
	return &ir, nil
}

// ProbeNow sweeps every backend once, synchronously and in ring
// order: health-probes each, recomputes the cluster's agreed model
// version, applies skew marking, and drains any replay backlog whose
// owner recovered. The background prober calls this on a ticker;
// tests call it directly for deterministic schedules.
func (g *Gate) ProbeNow() {
	for _, b := range g.backends {
		g.probe(b)
	}
	g.enforceVersions()
	for _, b := range g.backends {
		g.drainReplay(b)
	}
}

// probe refreshes one backend's health view from a single combined
// /healthz request (status, degraded flag, shard count, model SHA and
// version, ledger head — the serve layer bundles them so health and
// version checks are one round trip).
func (g *Gate) probe(b *backend) {
	info, err := g.fetchHealth(b)
	if err != nil {
		b.probeFails.Add(1)
	}
	b.mu.Lock()
	b.lastProbe = time.Now()
	if err != nil {
		b.markDownLocked(err)
		b.mu.Unlock()
		return
	}
	// Ledger self-consistency gates routability exactly like model-SHA
	// skew: a contradicted audit trail means the backend's history can
	// no longer be trusted, so its alerts can't either.
	if !b.checkLedgerLocked(info) {
		if b.state != StateTampered {
			g.tampered.Add(1)
		}
		b.state = StateTampered
		b.lastErr = fmt.Sprintf("ledger head (seq %d, root %.12s) contradicts last accepted (seq %d, root %.12s)",
			info.LedgerSeq, info.LedgerRoot, b.ledgerSeq, b.ledgerRoot)
		b.info = info
		b.mu.Unlock()
		return
	}
	b.info = info
	b.lastErr = ""
	if info.Degraded {
		b.state = StateDegraded
	} else {
		b.state = StateUp
	}
	b.mu.Unlock()
}

func (g *Gate) fetchHealth(b *backend) (probeInfo, error) {
	if err := g.cfg.Inject.Fire(faultinject.GateProbeFlap); err != nil {
		return probeInfo{}, fmt.Errorf("probe %s: %w", b.url, err)
	}
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return probeInfo{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return probeInfo{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return probeInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		// 503 is how a draining backend answers: reachable, not serving.
		return probeInfo{}, fmt.Errorf("probe %s: %s: %.200s", b.url, resp.Status, data)
	}
	var info probeInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return probeInfo{}, fmt.Errorf("probe %s: bad health body: %w", b.url, err)
	}
	return info, nil
}

// enforceVersions recomputes the cluster's agreed model SHA — the
// majority among reachable backends reporting one, lexically smallest
// on a tie — and marks disagreeing backends skewed (unroutable).
// Suspended while a rolling swap is walking the backends, since skew
// is then the expected intermediate state.
func (g *Gate) enforceVersions() {
	g.mu.Lock()
	swapping := g.swapping
	g.mu.Unlock()
	if swapping {
		return
	}
	counts := make(map[string]int)
	for _, b := range g.backends {
		b.mu.Lock()
		// Tampered backends get no vote: a node whose audit trail is
		// contradicted must not steer the cluster's agreed version.
		if b.state != StateDown && b.state != StateTampered && b.info.ModelSHA != "" {
			counts[b.info.ModelSHA]++
		}
		b.mu.Unlock()
	}
	agreed := ""
	best := 0
	for sha, n := range counts {
		if n > best || (n == best && (agreed == "" || sha < agreed)) {
			agreed, best = sha, n
		}
	}
	g.mu.Lock()
	g.agreedSHA = agreed
	g.mu.Unlock()
	if agreed == "" {
		return // nobody reports a SHA (in-memory models): nothing to enforce
	}
	for _, b := range g.backends {
		b.mu.Lock()
		if b.state != StateDown && b.state != StateTampered && b.info.ModelSHA != "" && b.info.ModelSHA != agreed {
			b.state = StateSkewed
		}
		b.mu.Unlock()
	}
}

// drainReplay delivers a recovered backend's backlog, oldest first, as
// one forward, looping until the buffer runs dry (records may
// accumulate behind the drain). A failed delivery pushes the backlog
// back to the buffer's front and re-marks the backend down — order is
// never broken.
func (g *Gate) drainReplay(b *backend) {
	var body []byte
	for {
		b.mu.Lock()
		if !b.state.routable() || b.draining || b.replay.len() == 0 {
			b.mu.Unlock()
			return
		}
		b.draining = true
		entries := b.replay.takeAll()
		b.mu.Unlock()

		body = body[:0]
		for _, e := range entries {
			body = append(body, e.line...)
		}
		n := countRecords(entries)
		_, ferr := g.forward(b, body, g.drawForwardFaults())

		b.mu.Lock()
		b.draining = false
		if ferr != nil {
			b.markDownLocked(ferr)
			b.replay.restore(entries)
			b.mu.Unlock()
			b.forwardErrs.Add(1)
			g.logf("backend %s: replay failed, %d records re-parked: %v", b.url, n, ferr)
			return
		}
		b.replayed.Add(n)
		b.mu.Unlock()
		g.logf("backend %s: replayed %d buffered records", b.url, n)
	}
}

// AgreedSHA returns the cluster's current agreed model SHA ("" when
// no reachable backend reports one).
func (g *Gate) AgreedSHA() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.agreedSHA
}

// handleReload performs the rolling cluster-wide model swap: each
// backend in ring order gets POST /v1/model/reload (retraining and
// RCU hot-swapping behind its own /v1/ingest traffic), and the first
// failure aborts the walk — the remaining backends keep serving the
// old model, and the response names how far the roll got. Version
// enforcement is suspended for the duration, since a half-rolled
// cluster is legitimately skewed.
func (g *Gate) handleReload(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	if g.swapping {
		g.mu.Unlock()
		http.Error(w, "a rolling swap is already in progress", http.StatusConflict)
		return
	}
	g.swapping = true
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.swapping = false
		g.mu.Unlock()
	}()

	type swapped struct {
		URL     string `json:"url"`
		SHA256  string `json:"sha256"`
		Version int64  `json:"version"`
	}
	reply := struct {
		Swapped   []swapped `json:"swapped"`
		AgreedSHA string    `json:"agreed_sha,omitempty"`
		Error     string    `json:"error,omitempty"`
	}{Swapped: []swapped{}}

	abort := func(code int, format string, args ...any) {
		g.reloadFails.Add(1)
		reply.Error = fmt.Sprintf(format, args...)
		edge.WriteJSON(w, code, reply)
	}

	for _, b := range g.backends {
		b.mu.Lock()
		st := b.state
		b.mu.Unlock()
		if st == StateDown {
			abort(http.StatusServiceUnavailable,
				"backend %s is down; rolling swap aborted after %d of %d backends",
				b.url, len(reply.Swapped), len(g.backends))
			return
		}
		mr, err := g.reloadBackend(b)
		if err != nil {
			abort(http.StatusBadGateway,
				"backend %s: %v; rolling swap aborted after %d of %d backends",
				b.url, err, len(reply.Swapped), len(g.backends))
			return
		}
		reply.Swapped = append(reply.Swapped, swapped{URL: b.url, SHA256: mr.SHA256, Version: mr.Version})
	}

	// The roll completed; all backends must now agree.
	sha := reply.Swapped[0].SHA256
	for _, s := range reply.Swapped {
		if s.SHA256 != sha {
			abort(http.StatusBadGateway,
				"backends disagree after the swap (%q vs %q); re-run the reload", sha, s.SHA256)
			return
		}
	}
	g.mu.Lock()
	g.agreedSHA = sha
	g.mu.Unlock()
	g.swaps.Add(1)
	reply.AgreedSHA = sha
	edge.WriteJSON(w, http.StatusOK, reply)
}

// reloadBackend POSTs one backend's reload and returns the model it
// serves afterwards.
func (g *Gate) reloadBackend(b *backend) (*serve.ModelResponse, error) {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ReloadTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/model/reload", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("reload: %s: %.200s", resp.Status, data)
	}
	var mr serve.ModelResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		return nil, fmt.Errorf("reload: bad model body: %w", err)
	}
	// Refresh the probe view so status and enforcement see the new
	// version immediately.
	g.probe(b)
	return &mr, nil
}

// handleStatus serves GET /v1/cluster/status.
func (g *Gate) handleStatus(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	resp := StatusResponse{
		AgreedSHA: g.agreedSHA,
		Swapping:  g.swapping,
		VNodes:    g.ring.VNodes(),
	}
	g.mu.Unlock()
	for _, b := range g.backends {
		b.mu.Lock()
		resp.Backends = append(resp.Backends, b.snapshotLocked())
		b.mu.Unlock()
	}
	resp.UptimeSeconds = time.Since(g.start).Seconds()
	edge.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports the gate's own liveness: ok when every
// backend is routable, degraded when some are, isolated (503) when
// none are.
func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	routable := 0
	for _, b := range g.backends {
		b.mu.Lock()
		if b.state.routable() {
			routable++
		}
		b.mu.Unlock()
	}
	status, code := "ok", http.StatusOK
	switch {
	case routable == 0:
		status, code = "isolated", http.StatusServiceUnavailable
	case routable < len(g.backends):
		status = "degraded"
	}
	g.mu.Lock()
	agreed, swapping := g.agreedSHA, g.swapping
	g.mu.Unlock()
	edge.WriteJSON(w, code, map[string]any{
		"status":         status,
		"backends":       len(g.backends),
		"routable":       routable,
		"agreed_sha":     agreed,
		"swapping":       swapping,
		"uptime_seconds": time.Since(g.start).Seconds(),
	})
}
