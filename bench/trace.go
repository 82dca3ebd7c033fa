package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/ecg"
	"bglpred/internal/eval"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/model"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// span is one timed call into a layer. Spans of one batch (or one
// retrain cycle) share Batch; Parent is the span that contains it
// logically, 0 for a root. The layers are timed from outside, so a
// child is often measured on a twin of the thing its parent drove and
// its interval need not fall inside the parent's: a layer's self time
// is its span's duration minus its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Batch: batch, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// add records a span whose duration was measured elsewhere, starting
// where its parent started.
func (t *tracer) add(name string, parent, batch int, d time.Duration) int {
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Batch: batch, Name: name, Start: start, End: start + int64(d)})
	return len(t.spans)
}

// total sums the durations of the spans called name, from the
// from-th recorded span on.
func (t *tracer) total(name string, from int) time.Duration {
	var d int64
	for _, sp := range t.spans[from:] {
		if sp.Name == name {
			d += sp.End - sp.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timeIt returns how long fn took.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func perRec(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// runTrace is the traced run. The harness wants every per-layer metric
// from every workload, so it measures every layer whatever the
// workload: a sweep over the codecs, the classifier and the engines on
// the shared tail, a span-traced retrain cycle, span-traced ingest
// passes, and an untraced paced run for the tails. The workload picks
// the shape of the ingest pass whose spans give the serve metrics
// (retrain-cycle, which ingests nothing, borrows serve-bin-flood's)
// and what trace_overhead_share compares.
func runTrace(p *prepared, cfg config, out *outcome) error {
	tr := &tracer{t0: time.Now()}
	ds := p.ds
	if err := traceCodecs(ds, out); err != nil {
		return err
	}
	traceCatalog(ds, out)
	if err := traceOnline(ds, out); err != nil {
		return err
	}
	cycle, err := traceRetrain(tr, ds, cfg.outDir, out)
	if err != nil {
		return err
	}
	if err := traceLedger(cfg.outDir, out); err != nil {
		return err
	}

	serveBin, gateBin := *mustWorkload("serve-bin-flood").shape, *mustWorkload("gate-bin-flood").shape
	first := serveBin // retrain-cycle ingests nothing and borrows this one
	if cfg.workload.shape != nil {
		first = *cfg.workload.shape
	}
	pass, err := traceIngest(tr, ds, first, out)
	if err != nil {
		return err
	}
	out.layers.set("serve.handler_self_ns_per_rec", perRec(pass.handler-pass.decode-pass.ingest, len(ds.tail)))
	out.layers.set("serve.http_overhead_us_per_req", us(pass.loopback-pass.front)/float64(pass.posts))

	gate := pass
	if !first.gate {
		if gate, err = traceIngest(tr, ds, gateBin, out); err != nil {
			return err
		}
	}
	out.layers.set("cluster.gate_self_ns_per_rec", perRec(gate.front-gate.handler, len(ds.tail)))
	out.layers.set("cluster.owner_share_max", gate.ownerShare)
	out.layers.set("cluster.forwards_per_req", gate.forwards)
	out.layers.set("cluster.replayed_total", gate.replayed)
	plain, err := encodeBodies(ds.tail, serveBin.batch, serveBin.text)
	if err != nil {
		return err
	}
	direct, err := untracedRate(ds, plain, serveBin)
	if err != nil {
		return err
	}
	out.layers.set("cluster.hop_ratio", gate.untraced/direct)

	// The paced run is a whole workload of its own; its tails and the
	// ledger and checkpoint costs under it are reported here because
	// they swing too much run to run to carry a bound.
	pacedWorkload := mustWorkload("paced-durable")
	pacedPrep, err := prepareWorkload(pacedWorkload, ds)
	if err != nil {
		return err
	}
	pacedOrc, err := newOracle(ds, *pacedWorkload.shape)
	if err != nil {
		return err
	}
	pacedOut := newOutcome()
	st, err := runPaced(pacedPrep, *pacedWorkload.shape, pacedOrc, cfg.seconds, cfg.outDir, pacedOut)
	if err != nil {
		return err
	}
	out.absorb(pacedOut)
	out.layers.set("serve.ack_ms_p99", percentile(st.ackMS, 99))
	out.layers.set("serve.alert_ms_p50", median(st.alertMS))
	out.layers.set("serve.alert_ms_p90", percentile(st.alertMS, 90))
	out.layers.set("serve.gen_late_us_p99", percentile(st.lateUS, 99))
	out.layers.set("serve.shed_total", st.counters["bglserved_shed_total"])
	out.layers.set("serve.deadlined_total", st.counters["bglserved_deadline_exceeded_total"])
	out.layers.set("serve.sse_dropped_total", st.counters["bglserved_stream_dropped_total"])
	out.layers.set("ledger.appends_per_fsync", st.appendsPerFsync)
	out.layers.set("ledger.bytes_per_entry", st.bytesPerEntry)
	out.layers.set("ledger.verify_ms", st.verifyMS)
	out.layers.set("ledger.proof_us", st.proofUS)
	out.layers.set("lifecycle.checkpoint_ms_p50", median(st.checkpointMS))
	out.layers.set("lifecycle.checkpoint_bytes", st.checkpointBytes)
	out.layers.set("lifecycle.restore_ms", st.restoreMS)
	out.notef("paced tails: acks n=%d support p%g, alerts n=%d support p%g",
		len(st.ackMS), supportedPercentile(len(st.ackMS)), len(st.alertMS), supportedPercentile(len(st.alertMS)))

	// Tracing overhead: how much slower the real operation ran while
	// the spans and the twin calls ran between its repetitions.
	if cfg.workload.shape == nil {
		retrainOut := newOutcome()
		// Three cycles' worth: the first untraced cycle runs cold and
		// the median should not be it.
		untraced, err := runRetrain(p, 3*cycle.Seconds(), cfg.outDir, retrainOut)
		if err != nil {
			return err
		}
		out.absorb(retrainOut)
		out.layers.set("trace_overhead_share", cycle.Seconds()/median(untraced)-1)
	} else {
		out.layers.set("trace_overhead_share", pass.untraced/(float64(len(ds.tail))/pass.loopback.Seconds())-1)
	}
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload.Name+".json"))
}

// absorb folds a side run's operation counts and problems into o.
func (o *outcome) absorb(side *outcome) {
	o.attempted += side.attempted
	o.failed += side.failed
	o.wrong = o.wrong || side.wrong
	for _, p := range side.problems {
		o.problem(p)
	}
	o.notes = append(o.notes, side.notes...)
}

// decoder decodes bodies of one dialect the way a server does, reusing
// one wire decoder across bodies.
type decoder struct {
	text bool
	wire *raslog.WireDecoder
}

// decode appends b's events to dst.
func (d *decoder) decode(b *body, dst []raslog.Event) ([]raslog.Event, error) {
	r := bytes.NewReader(b.data)
	if d.text {
		rd := raslog.NewReader(r)
		for {
			ev, err := rd.Read()
			if errors.Is(err, io.EOF) {
				return dst, nil
			}
			if err != nil {
				return dst, err
			}
			dst = append(dst, ev)
		}
	}
	if d.wire == nil {
		d.wire = raslog.NewWireDecoder(r)
	} else {
		d.wire.Reset(r)
	}
	for {
		evs, err := d.wire.ReadFrame()
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, evs...)
	}
}

// traceCodecs times both codecs' write and read sides over the tail,
// and the gate's routing peek over the wire frames.
func traceCodecs(ds *dataset, out *outcome) error {
	n := len(ds.tail)
	for _, text := range []bool{false, true} {
		var bodies []body
		var err error
		enc := timeIt(func() { bodies, err = encodeBodies(ds.tail, 4096, text) })
		if err != nil {
			return err
		}
		size := 0
		for i := range bodies {
			size += len(bodies[i].data)
		}
		d := &decoder{text: text}
		evs := make([]raslog.Event, 0, 4096)
		dec := timeIt(func() {
			for i := range bodies {
				if evs, err = d.decode(&bodies[i], evs[:0]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		dialect := "wire"
		if text {
			dialect = "text"
		}
		out.layers.set("raslog."+dialect+"_encode_ns_per_rec", perRec(enc, n))
		out.layers.set("raslog."+dialect+"_decode_ns_per_rec", perRec(dec, n))
		out.layers.set("raslog."+dialect+"_bytes_per_rec", float64(size)/float64(n))
		if text {
			continue
		}
		peeked := 0
		peek := timeIt(func() {
			for i := range bodies {
				var k int
				if k, err = peekBody(bodies[i].data); err != nil {
					return
				}
				peeked += k
			}
		})
		if err != nil {
			return fmt.Errorf("peek: %w", err)
		}
		if peeked != n {
			return fmt.Errorf("peek: walked %d of %d records", peeked, n)
		}
		out.layers.set("raslog.peek_ns_per_rec", perRec(peek, n))
	}
	return nil
}

// peekBody walks a wire body the way the gate's pass-through path does,
// decoding only each event's routing prefix, and counts the events.
func peekBody(data []byte) (int, error) {
	n := 0
	sc := raslog.NewWireScanner(bytes.NewReader(data))
	for {
		f, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		err = f.Records(func(tag byte, raw, content []byte) error {
			if tag != raslog.WireTagEvent {
				return nil
			}
			n++
			_, _, perr := raslog.PeekWireEvent(content, f.BaseSec)
			return perr
		})
		if err != nil {
			return n, err
		}
	}
}

// traceCatalog times the keyword classifier bare and behind its
// memoizing interner.
func traceCatalog(ds *dataset, out *outcome) {
	n := len(ds.tail)
	c := catalog.NewClassifier()
	out.layers.set("catalog.classify_ns_per_rec", perRec(timeIt(func() {
		for i := range ds.tail {
			c.Classify(&ds.tail[i])
		}
	}), n))
	in := catalog.NewInterner(0)
	out.layers.set("catalog.intern_ns_per_rec", perRec(timeIt(func() {
		for i := range ds.tail {
			in.Classify(&ds.tail[i])
		}
	}), n))
	out.layers.set("catalog.intern_entries", float64(in.Entries()))
}

// traceOnline replays the tail through engines partitioned the way a
// two-shard server partitions it: once in the 4096-record batches the
// wire path hands a shard, once record by record as the text path
// does. It also scores the alerts the way the paper scores warnings.
func traceOnline(ds *dataset, out *outcome) error {
	n := len(ds.tail)
	owner := func(loc raslog.Location) int { return midplaneShard(loc, serveShards) }
	parts := make([][]raslog.Event, serveShards)
	for i := range ds.tail {
		o := owner(ds.tail[i].Location)
		parts[o] = append(parts[o], ds.tail[i])
	}
	var warnings []predictor.Warning
	var rejected int64
	var state bytes.Buffer
	batched := time.Duration(0)
	for _, part := range parts {
		e := newEngine(ds.model, func(w predictor.Warning) { warnings = append(warnings, w) })
		batched += timeIt(func() {
			for lo := 0; lo < len(part); lo += 4096 {
				rejected += e.IngestBatch(part[lo:min(lo+4096, len(part))])
			}
		})
		if err := gob.NewEncoder(&state).Encode(e.State()); err != nil {
			return err
		}
	}
	single := time.Duration(0)
	for _, part := range parts {
		e := newEngine(ds.model, nil)
		single += timeIt(func() {
			for i := range part {
				if _, err := e.Ingest(&part[i]); err != nil {
					rejected++
				}
			}
		})
	}
	score := eval.Match(warnings, preprocess.Run(ds.tail, preprocess.Options{}).Events)
	out.layers.set("online.ingest_ns_per_rec", perRec(batched, n))
	out.layers.set("online.single_ingest_ns_per_rec", perRec(single, n))
	out.layers.set("online.alerts", float64(len(warnings)))
	out.layers.set("online.rejected", float64(rejected))
	out.layers.set("online.state_bytes", float64(state.Len()))
	out.layers.set("online.precision", score.Precision())
	out.layers.set("online.recall", score.Recall())
	return nil
}

func isFatalItem(it assoc.Item) bool {
	s, ok := catalog.ByID(it)
	return ok && s.IsFatal()
}

// traceRetrain walks one retrain cycle phase by phase through the
// public functions RetrainNow composes, a span around each, and
// returns the cycle's duration.
func traceRetrain(tr *tracer, ds *dataset, outDir string, out *outcome) (time.Duration, error) {
	dir, err := os.MkdirTemp(outDir, "trace-retrain-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	n := len(ds.all)

	var rec *lifecycle.Recorder
	out.layers.set("lifecycle.recorder_observe_ns_per_rec", perRec(timeIt(func() { rec = fillRecorder(ds.all) }), n))
	srv := serve.New(ds.model, serveConfig(serveShards))
	defer srv.Close()
	pipeline := core.New(retrainPipeline())

	cycle := tr.begin("lifecycle.retrain", 0, 0)
	id := tr.begin("lifecycle.snapshot", cycle, 0)
	raw := rec.Snapshot()
	tr.end(id)
	id = tr.begin("preprocess.run", cycle, 0)
	pre := pipeline.Preprocess(raw)
	tr.end(id)
	train := tr.begin("predictor.train", cycle, 0)
	trained, err := pipeline.Train(pre.Events)
	tr.end(train)
	if err != nil {
		return 0, err
	}
	id = tr.begin("model.package_save", cycle, 0)
	art, err := model.FromMeta(trained.Meta, model.Provenance{TrainedAt: time.Now().UTC(), Source: "bench trace", Records: len(raw), Unique: len(pre.Events)})
	var info model.Info
	if err == nil {
		info, err = art.Save(lifecycle.ModelPath(dir))
	}
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("serve.swap", cycle, 0)
	srv.SwapModel(trained.Meta, serve.ModelInfo{SHA256: info.SHA256, Rules: trained.Rule.Rules().Len()})
	tr.end(id)
	tr.end(cycle)

	// Inside predictor.train: each base alone, and the miner alone
	// under the rule base, as children of the train span.
	stat := timeIt(func() { err = predictor.NewStatistical().Train(pre.Events) })
	if err != nil {
		return 0, err
	}
	tr.add("predictor.stat_train", train, 0, stat)
	rule := predictor.NewRule()
	rule.Config.RuleGenWindow = ruleGenWindow
	ruleD := timeIt(func() { err = rule.Train(pre.Events) })
	if err != nil {
		return 0, err
	}
	ruleSpan := tr.add("predictor.rule_train", train, 0, ruleD)
	tx := predictor.BuildTransactions(pre.Events, ruleGenWindow)
	var rules []assoc.Rule
	mine := timeIt(func() {
		rules = assoc.MineRules(tx, isFatalItem, assoc.Config{MinSupport: rule.Config.MinSupport, MinConfidence: rule.Config.MinConfidence, MaxBodyLen: rule.Config.MaxBodyLen})
	})
	tr.add("assoc.mine", ruleSpan, 0, mine)
	minCount := max(assoc.SupportCount(rule.Config.MinSupport, len(tx)), 5)
	frequent := (&assoc.FPGrowth{}).Mine(tx, minCount, rule.Config.MaxBodyLen+1)
	graph := ecg.New(ecg.Config{})
	ecgD := timeIt(func() { err = graph.Train(pre.Events) })
	if err != nil {
		return 0, err
	}
	tr.add("ecg.train", train, 0, ecgD)

	var loaded *model.Artifact
	load := timeIt(func() { loaded, _, err = model.Load(lifecycle.ModelPath(dir)) })
	if err == nil {
		_, err = loaded.Meta()
	}
	if err != nil {
		return 0, err
	}
	unique := preprocess.Run(ds.tail, preprocess.Options{}).Events
	predict := timeIt(func() { ds.model.Predict(unique, predictionWindow) })
	export := timeIt(func() { srv.ExportShards() })

	span := func(name string) time.Duration { return tr.total(name, cycle-1) }
	out.layers.set("preprocess.run_ns_per_rec", perRec(span("preprocess.run"), n))
	out.layers.set("preprocess.compression_ratio", float64(n)/float64(len(pre.Events)))
	out.layers.set("predictor.stat_train_ms", ms(stat))
	out.layers.set("predictor.rule_train_ms", ms(ruleD))
	out.layers.set("predictor.meta_predict_ns_per_event", perRec(predict, len(unique)))
	out.layers.set("predictor.rules", float64(rule.Rules().Len()))
	out.layers.set("assoc.mine_ms", ms(mine))
	out.layers.set("assoc.transactions", float64(len(tx)))
	out.layers.set("assoc.frequent_itemsets", float64(len(frequent)))
	out.layers.set("ecg.train_ms", ms(ecgD))
	out.layers.set("ecg.nodes", float64(graph.Graph().NodeCount()))
	out.layers.set("ecg.edges", float64(graph.Graph().EdgeCount()))
	out.layers.set("model.package_save_ms", ms(span("model.package_save")))
	out.layers.set("model.load_ms", ms(load))
	out.layers.set("model.bytes", float64(info.Size))
	out.layers.set("serve.swap_us", us(span("serve.swap")))
	out.layers.set("serve.export_shards_us", us(export))
	out.layers.set("lifecycle.retrain_s_max", span("lifecycle.retrain").Seconds())
	if len(rules) == 0 || trained.Rule.Rules().Len() == 0 {
		out.mismatch("traced retrain", fmt.Sprintf("mined %d rules alone, %d in the pipeline", len(rules), trained.Rule.Rules().Len()))
	}
	return span("lifecycle.retrain"), nil
}

// traceLedger times one writer appending small entries, each its own
// group commit and fsync.
func traceLedger(outDir string, out *outcome) error {
	dir, err := os.MkdirTemp(outDir, "trace-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	led, _, err := ledger.Open(filepath.Join(dir, lifecycle.LedgerFile), ledger.Config{})
	if err != nil {
		return err
	}
	defer led.Close()
	payload := bytes.Repeat([]byte{0xb6}, 32)
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = us(timeIt(func() { _, err = led.Append(ledger.KindIngest, payload) }))
		if err != nil {
			return err
		}
	}
	out.layers.set("ledger.append_us_p50", median(lat))
	return nil
}

// ingestTrace is what one span-traced ingest pass measured.
type ingestTrace struct {
	loopback, front, handler, decode, ingest time.Duration
	posts                                    int
	untraced                                 float64 // records/s of an untraced pass of the same shape
	ownerShare                               float64
	forwards, replayed                       float64 // gate only: backend POSTs per gate POST, records replayed
}

// untracedRate is the records/s of one plain pass of bodies, which are
// the tail in shape sh.
func untracedRate(ds *dataset, bodies []body, sh shape) (float64, error) {
	f, err := sh.newFront(ds.model, false)
	if err != nil {
		return 0, err
	}
	defer f.close()
	d := timeIt(func() {
		for i := range bodies {
			if err == nil {
				err = f.post(&bodies[i], sh.text)
			}
		}
	})
	return float64(len(ds.tail)) / d.Seconds(), err
}

// traceIngest replays the tail once in shape sh with a span around
// every layer a batch crosses. The real POST goes to a live front; the layers under
// it are timed on twins fed the same batch in the same order — the
// front's handler without a socket, the decoder alone, the engines
// alone — because from outside the package that is the only way to
// see inside one request:
//
//	batch > http.loopback > [cluster.gate >] serve.handler > {raslog.decode, online.ingest}
func traceIngest(tr *tracer, ds *dataset, sh shape, out *outcome) (*ingestTrace, error) {
	bodies, err := encodeBodies(ds.tail, sh.batch, sh.text)
	if err != nil {
		return nil, err
	}
	it := &ingestTrace{posts: len(bodies)}
	if it.untraced, err = untracedRate(ds, bodies, sh); err != nil {
		return nil, err
	}
	live, err := sh.newFront(ds.model, false)
	if err != nil {
		return nil, err
	}
	defer live.close()
	twin, err := sh.newFront(ds.model, true)
	if err != nil {
		return nil, err
	}
	defer twin.close()
	orc, err := newOracle(ds, sh)
	if err != nil {
		return nil, err
	}
	parts, owner := live.owner()
	it.ownerShare = ownerShareMax(ds.tail, parts, owner)
	engines := make([]*online.Engine, parts)
	for i := range engines {
		engines[i] = newEngine(ds.model, nil)
	}
	dec := &decoder{text: sh.text}
	evs := make([]raslog.Event, 0, sh.batch)
	byOwner := make([][]raslog.Event, parts)

	frontName := "serve.handler"
	if sh.gate {
		frontName = "cluster.gate"
	}
	firstSpan := len(tr.spans)
	for i := range bodies {
		b := &bodies[i]
		root := tr.begin("batch", 0, i)
		id := tr.begin("http.loopback", root, i)
		out.op(live.post(b, sh.text))
		tr.end(id)

		handler := tr.begin(frontName, id, i)
		inBackends := twin.backendNS.Load()
		out.op(serveInProcess(twin.handler, b, sh.text))
		tr.end(handler)
		if sh.gate {
			handler = tr.add("serve.handler", handler, i, time.Duration(twin.backendNS.Load()-inBackends))
		}

		id = tr.begin("raslog.decode", handler, i)
		evs, err = dec.decode(b, evs[:0])
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for o := range byOwner {
			byOwner[o] = byOwner[o][:0]
		}
		for j := range evs {
			o := owner(evs[j].Location)
			byOwner[o] = append(byOwner[o], evs[j])
		}
		id = tr.begin("online.ingest", handler, i)
		for o, part := range byOwner {
			if rej := engines[o].IngestBatch(part); rej != 0 {
				out.op(fmt.Errorf("twin engine rejected %d records of batch %d", rej, i))
			}
		}
		tr.end(id)
		tr.end(root)
	}
	for _, f := range []*front{live, twin} {
		diff, err := orc.check(f, len(ds.tail))
		if err != nil {
			return nil, err
		}
		out.mismatch("traced pass", diff)
	}
	if sh.gate {
		raw, err := twin.get("/metrics")
		if err != nil {
			return nil, err
		}
		for _, srv := range twin.servers {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			it.forwards += parseCounters(rec.Body.Bytes())["bglserved_ingest_requests_total"]
		}
		it.forwards /= parseCounters(raw)["bglgate_ingest_requests_total"]
		status, err := twin.get("/v1/cluster/status")
		if err != nil {
			return nil, err
		}
		var sr struct {
			Backends []struct {
				Replayed float64 `json:"replayed"`
			} `json:"backends"`
		}
		if err := json.Unmarshal(status, &sr); err != nil {
			return nil, err
		}
		for _, b := range sr.Backends {
			it.replayed += b.Replayed
		}
	}

	// This pass's spans only: a traced run makes up to two.
	it.loopback = tr.total("http.loopback", firstSpan)
	it.front = tr.total(frontName, firstSpan)
	it.handler = tr.total("serve.handler", firstSpan)
	it.decode = tr.total("raslog.decode", firstSpan)
	it.ingest = tr.total("online.ingest", firstSpan)
	return it, nil
}
