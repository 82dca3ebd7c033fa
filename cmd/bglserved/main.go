// Command bglserved runs the sharded HTTP prediction service: it
// obtains a trained meta-learner (from a saved model artifact, a
// checkpoint directory, or by training on a provided or generated RAS
// log), then serves
//
//	POST /v1/ingest         newline-delimited pipe records, or wire frames
//	GET  /v1/alerts         standing alarms + recent history
//	GET  /v1/alerts/stream  server-sent events push of new alarms
//	GET  /v1/model          identity of the serving model
//	POST /v1/model/reload   retrain on recent traffic and hot-swap
//	GET  /v1/proofs         audit-ledger head and inclusion proofs
//	GET  /healthz           liveness / drain state
//	GET  /metrics           Prometheus text exposition
//
// Usage:
//
//	bglserved -log anl.raslog
//	bglserved -profile anl -scale 0.05 -shards 8 -addr :8650
//	bglserved -load-model model.bglm -checkpoint-dir /var/lib/bglserved
//
// With -checkpoint-dir the daemon periodically snapshots every shard's
// in-flight state (dedup tables, observation windows, standing alarms)
// and restores it on the next start, so a crash or restart resumes
// prediction mid-stream instead of retraining cold. With
// -retrain-interval it re-mines the model over a sliding window of
// recent traffic — compressed to unique events as it arrives, so a
// retrain is training alone and takes milliseconds — and hot-swaps the
// result into the live shards without dropping a record.
//
// A -checkpoint-dir also activates the tamper-evident audit ledger
// (<dir>/audit.bgll, overridable with -ledger): every accepted ingest
// batch, emitted alert, checkpoint, and retrained-model generation is
// hash-chained into it under group commit, and cmd/bglaudit verifies
// the file offline. Checkpoints live only there: -ledger=off disables
// the ledger and with it checkpointing, so the daemon cold-starts.
//
// Drive it with cmd/bglreplay's -url flag, then curl /v1/alerts.
// SIGINT/SIGTERM shuts down gracefully: the listener stops, in-flight
// ingests finish (each has run its records through the engines before
// it replies), a final checkpoint lands, and the final counters print.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/core"
	"bglpred/internal/edge"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/model"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// options collects the daemon's flag values.
type options struct {
	addr    string
	shards  int
	history int
	window  time.Duration
	minConf float64

	requestTimeout    time.Duration
	shedTimeout       time.Duration
	quarantineCap     int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	logPath    string
	trainFrac  float64
	profile    string
	scale      float64
	seed       uint64
	minSupport float64
	predictors string

	loadModel          string
	saveModel          string
	checkpointDir      string
	ledgerPath         string
	checkpointInterval time.Duration
	retrainInterval    time.Duration
	retrainWindow      time.Duration
	retrainMinEvents   int

	debug bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8650", "listen address")
	flag.IntVar(&o.shards, "shards", 4, "engine shards (records route by rack/midplane)")
	flag.IntVar(&o.history, "history", 256, "recent-alerts ring capacity")
	flag.DurationVar(&o.window, "window", 30*time.Minute, "prediction window")
	flag.Float64Var(&o.minConf, "min-confidence", 0, "suppress alerts below this confidence")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 60*time.Second, "deadline on an ingest request's waits for busy shards (negative disables)")
	flag.DurationVar(&o.shedTimeout, "shed-timeout", time.Second, "max wait for a busy shard before shedding with 429")
	flag.IntVar(&o.quarantineCap, "quarantine-cap", 128, "ring capacity of malformed ingest records kept at /v1/quarantine")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 5*time.Minute, "http.Server ReadTimeout (bounds slow ingest uploads)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 0, "http.Server WriteTimeout (0 = disabled; a non-zero value kills long-lived SSE streams)")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	flag.StringVar(&o.logPath, "log", "", "train on this RAS log file (text or wire)")
	flag.Float64Var(&o.trainFrac, "train", 1.0, "fraction of -log used for training (0,1]")
	flag.StringVar(&o.profile, "profile", "anl", "with no -log, generate a training log from this profile (anl|sdsc)")
	flag.Float64Var(&o.scale, "scale", 0.05, "profile scale factor for the generated training log")
	flag.Uint64Var(&o.seed, "seed", 0, "generator seed override (0 keeps the profile default)")
	flag.Float64Var(&o.minSupport, "min-support", 0, "rule-mining minimum support (0 = default 0.01; the paper states 0.04, see DESIGN.md)")
	flag.StringVar(&o.predictors, "predictors", "", "comma-separated base predictors the meta-learner arbitrates (e.g. rule,stat,ecg); empty = the paper's statistical+rule pair; applies to training and retraining (a -load-model artifact carries its own set)")
	flag.StringVar(&o.loadModel, "load-model", "", "serve this saved model artifact instead of training")
	flag.StringVar(&o.saveModel, "save-model", "", "after training, save the model artifact here")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "persist model + shard state here; restore on start")
	flag.StringVar(&o.ledgerPath, "ledger", "", "audit-ledger file, which also holds the checkpoints (default <checkpoint-dir>/audit.bgll when -checkpoint-dir is set; 'off' disables both)")
	flag.DurationVar(&o.checkpointInterval, "checkpoint-interval", 30*time.Second, "interval between shard-state checkpoints")
	flag.DurationVar(&o.retrainInterval, "retrain-interval", 0, "retrain on recent traffic this often and hot-swap (0 disables periodic retraining; POST /v1/model/reload always works)")
	flag.DurationVar(&o.retrainWindow, "retrain-window", lifecycle.DefaultRecorderWindow, "sliding event-time window retrains learn from; traffic is compressed to unique events (Phase 1) as it arrives and kept that way")
	flag.IntVar(&o.retrainMinEvents, "retrain-min-events", 1000, "skip retrains whose window stands for fewer raw records than this")
	edge.DebugFlag(flag.CommandLine, &o.debug)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bglserved: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	selection, err := parsePredictors(o.predictors)
	if err != nil {
		return err
	}
	meta, modelInfo, err := obtainModel(o, selection)
	if err != nil {
		return err
	}

	// The audit ledger rides in the checkpoint directory unless placed
	// explicitly; it must open before the server so ingest batches and
	// alerts chain from the first request.
	var led *ledger.Ledger
	ledgerPath := o.ledgerPath
	if ledgerPath == "" && o.checkpointDir != "" {
		ledgerPath = lifecycle.LedgerPath(o.checkpointDir)
	}
	if ledgerPath != "" && ledgerPath != "off" {
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			return err
		}
		var res ledger.OpenResult
		led, res, err = ledger.Open(ledgerPath, ledger.Config{Logf: logf})
		if err != nil {
			return fmt.Errorf("open audit ledger: %w", err)
		}
		defer led.Close()
		seq, root := led.Head()
		switch {
		case res.Created:
			logf("audit ledger %s created", ledgerPath)
		case res.TruncatedBytes > 0:
			logf("audit ledger %s recovered: %d entries in %d commits (dropped a torn, never-acknowledged tail of %d bytes), head seq %d root %.12s",
				ledgerPath, res.Entries, res.Commits, res.TruncatedBytes, seq, root)
		default:
			logf("audit ledger %s verified: %d entries in %d commits, head seq %d root %.12s",
				ledgerPath, res.Entries, res.Commits, seq, root)
		}
	}
	if modelInfo, err = lifecycle.BootModel(led, modelInfo); err != nil {
		return fmt.Errorf("audit ledger %s: %w", ledgerPath, err)
	}

	// Keep the shard engines' Phase 1 output for retraining, and expose
	// retraining via POST /v1/model/reload. The retrainer needs the
	// server and the server's Reload hook needs the retrainer, so the
	// hook closes over a variable assigned right after construction.
	recorder := lifecycle.NewRecorder(o.retrainWindow, 0)
	var (
		retrainMu sync.Mutex
		retrainer *lifecycle.Retrainer
	)
	// Lifecycle persistence counters ride along on /metrics; the
	// checkpointer and retrainer are wired in below once constructed.
	var (
		auxMu        sync.Mutex
		checkpointer *lifecycle.Checkpointer
		auxRetrainer *lifecycle.Retrainer
	)
	auxMetrics := func(m *edge.Metrics) {
		auxMu.Lock()
		ck, rt := checkpointer, auxRetrainer
		auxMu.Unlock()
		if ck != nil {
			m.Counter("bglserved_checkpoint_saves_total", "Completed shard-state checkpoints.", ck.Saves())
			m.Counter("bglserved_checkpoint_retries_total", "Checkpoint write re-tries spent.", ck.Retries())
			m.Counter("bglserved_checkpoint_giveups_total", "Checkpoints abandoned with their retry budget exhausted.", ck.GiveUps())
		}
		if rt != nil {
			m.Counter("bglserved_model_persist_retries_total", "Model-artifact write re-tries spent.", rt.PersistRetries())
			m.Counter("bglserved_model_persist_giveups_total", "Retrained models whose artifact never landed.", rt.PersistGiveUps())
			m.GaugeSeconds("bglserved_retrain_seconds", "Duration of the last completed retrain, retraining window to swapped model.", rt.LastCycle())
			m.HistogramVec("bglserved_retrain_stage_seconds", "Time per retrain stage, from the window copy to the ledger record.", "stage", lifecycle.RetrainStages, rt.Stage)
		}
		m.Gauge("bglserved_recorder_events", "Unique events in the retraining window (Phase 1 output).", int64(recorder.Unique()))
		m.Gauge("bglserved_recorder_records", "Raw records the retraining window's events stand for.", int64(recorder.Len()))
		m.Counter("bglserved_recorder_seen_total", "Records the shard engines accepted into the retraining recorder.", recorder.Seen())
	}

	srv := serve.New(meta, serve.Config{
		Shards:         o.shards,
		History:        o.history,
		QuarantineCap:  o.quarantineCap,
		MinConfidence:  o.minConf,
		RequestTimeout: o.requestTimeout,
		ShedTimeout:    o.shedTimeout,
		Window:         o.window,
		Model:          modelInfo,
		OnRecord:       recorder.Shard,
		AuxMetrics:     auxMetrics,
		Ledger:         led,
		AuxHealth: func(m map[string]any) {
			auxMu.Lock()
			ck := checkpointer
			auxMu.Unlock()
			if ck == nil {
				return
			}
			if last := ck.LastSaved(); !last.IsZero() {
				m["last_checkpoint_at"] = last.UTC().Format(time.RFC3339Nano)
				m["checkpoint_age_seconds"] = time.Since(last).Seconds()
			}
		},
		Reload: func() error {
			retrainMu.Lock()
			rt := retrainer
			retrainMu.Unlock()
			if rt == nil {
				return errors.New("retrainer not started yet")
			}
			_, err := rt.RetrainNow()
			return err
		},
	})
	pipelineCfg := core.Config{Predictors: selection}
	pipelineCfg.Rule.MinSupport = o.minSupport
	rt := lifecycle.NewRetrainer(srv, recorder, lifecycle.RetrainerConfig{
		Interval:  o.retrainInterval,
		MinEvents: o.retrainMinEvents,
		Pipeline:  pipelineCfg,
		Dir:       o.checkpointDir,
		Source:    fmt.Sprintf("retrain window=%v", o.retrainWindow),
		Ledger:    led,
		Logf:      logf,
	})
	retrainMu.Lock()
	retrainer = rt
	retrainMu.Unlock()
	auxMu.Lock()
	auxRetrainer = rt
	auxMu.Unlock()

	// Checkpoints live in the audit ledger; without one there is
	// nothing to restore and nowhere to checkpoint. Restore resumes from
	// the ledger's newest checkpoint and, when it names a different
	// model than the one just booted (a crash between the artifact write
	// and the checkpoint append), hunts down and swaps in the matching
	// artifact rather than discarding the state.
	var ck *lifecycle.Checkpointer
	switch {
	case o.checkpointDir == "":
	case led == nil:
		logf("audit ledger off: running without checkpoints; shard state will not survive a restart")
	default:
		ck = lifecycle.NewCheckpointer(srv, lifecycle.CheckpointerConfig{
			Ledger:   led,
			Dir:      o.checkpointDir,
			Interval: o.checkpointInterval,
			Logf:     logf,
		})
		cp, err := ck.Restore(modelInfo.SHA256)
		if err != nil {
			return err
		}
		if cp != nil {
			logf("restored checkpoint (saved %s, %d shards, model %.12s)",
				cp.SavedAt.Format(time.RFC3339), len(cp.Shards), cp.ModelSHA256)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Background lifecycle loops: periodic checkpoints (with a final
	// one on shutdown) and periodic retrains.
	var background sync.WaitGroup
	lifecycleCtx, cancelLifecycle := context.WithCancel(context.Background())
	if ck != nil {
		auxMu.Lock()
		checkpointer = ck
		auxMu.Unlock()
		background.Add(1)
		go func() { defer background.Done(); ck.Run(lifecycleCtx) }()
	}
	if o.retrainInterval > 0 {
		background.Add(1)
		go func() { defer background.Done(); rt.Run(lifecycleCtx) }()
	}

	// Server-side timeouts: bound header reads (slowloris), whole-body
	// reads, and idle keep-alives. WriteTimeout defaults to disabled
	// because it starts at the end of header read and would sever
	// long-lived SSE subscriptions; the SSE heartbeat handles dead-peer
	// detection instead.
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           edge.WithDebug(srv, o.debug),
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		logf("serving on %s (%d shards, window %v, model %.12s)",
			o.addr, o.shards, o.window, modelInfo.SHA256)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		cancelLifecycle()
		background.Wait()
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight requests end,
	// then take the final checkpoint over the settled state.
	logf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	cancelLifecycle()
	background.Wait()
	srv.Close()
	logf("drained; final state:\n%s", finalReport(srv))
	return nil
}

// obtainModel produces the meta-learner to serve, preferring (in
// order) an explicit -load-model artifact, the active model in the
// checkpoint directory, and finally training from -log or a generated
// profile log. A freshly trained model is persisted to -save-model
// and/or the checkpoint directory so the next start skips training.
func obtainModel(o options, selection []string) (*predictor.Meta, serve.ModelInfo, error) {
	if o.loadModel != "" {
		return loadArtifact(o.loadModel)
	}
	if o.checkpointDir != "" {
		path := lifecycle.ModelPath(o.checkpointDir)
		if _, err := os.Stat(path); err == nil {
			return loadArtifact(path)
		}
	}

	trainRaw, source, err := trainingLog(o.logPath, o.trainFrac, o.profile, o.scale, o.seed)
	if err != nil {
		return nil, serve.ModelInfo{}, err
	}
	cfg := core.Config{Predictors: selection}
	cfg.Rule.MinSupport = o.minSupport
	pipeline := core.New(cfg)
	pre := pipeline.Preprocess(trainRaw)
	trained, err := pipeline.Train(pre.Events)
	if err != nil {
		return nil, serve.ModelInfo{}, fmt.Errorf("training: %w", err)
	}
	params := model.ParamsOf(trained.Meta)
	logf("trained on %s: %d records -> %d unique, %d rules (window %v), predictors %v",
		source, len(trainRaw), len(pre.Events), serve.RuleCount(trained.Meta),
		params.RuleGenWindow, trained.Meta.BaseNames())

	info := serve.ModelInfo{
		TrainedAt: time.Now().UTC(),
		Source:    source,
	}
	art, err := model.FromMeta(trained.Meta, model.Provenance{
		TrainedAt: info.TrainedAt,
		Source:    source,
		Records:   len(trainRaw),
		Unique:    len(pre.Events),
		LogStart:  trainRaw[0].Time,
		LogEnd:    trainRaw[len(trainRaw)-1].Time,
		Params:    params,
	})
	if err != nil {
		return nil, serve.ModelInfo{}, fmt.Errorf("packaging model: %w", err)
	}
	paths := make([]string, 0, 2)
	if o.saveModel != "" {
		paths = append(paths, o.saveModel)
	}
	if o.checkpointDir != "" {
		if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
			return nil, serve.ModelInfo{}, err
		}
		paths = append(paths, lifecycle.ModelPath(o.checkpointDir))
	}
	for _, path := range paths {
		mi, err := art.Save(path)
		if err != nil {
			return nil, serve.ModelInfo{}, fmt.Errorf("save model: %w", err)
		}
		info.SHA256 = mi.SHA256
		logf("saved model artifact %s (sha %.12s, %d bytes)", path, mi.SHA256, mi.Size)
	}
	return trained.Meta, info, nil
}

// loadArtifact reads a saved model artifact and rebuilds its
// meta-learner.
func loadArtifact(path string) (*predictor.Meta, serve.ModelInfo, error) {
	art, mi, err := model.Load(path)
	if err != nil {
		return nil, serve.ModelInfo{}, fmt.Errorf("load model: %w", err)
	}
	meta, err := art.Meta()
	if err != nil {
		return nil, serve.ModelInfo{}, fmt.Errorf("rebuild model: %w", err)
	}
	logf("loaded model %s (sha %.12s, trained on %q, %d rules, predictors %v)",
		path, mi.SHA256, art.Provenance.Source, serve.RuleCount(meta), meta.BaseNames())
	return meta, serve.ModelInfo{
		SHA256:    mi.SHA256,
		TrainedAt: art.Provenance.TrainedAt, // set only in artifacts written before it left the payload
		Source:    art.Provenance.Source,
	}, nil
}

// parsePredictors resolves a comma-separated -predictors selection
// against core's table of base predictors, failing fast on unknown
// names.
func parsePredictors(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	names := strings.Split(s, ",")
	resolved, err := core.Resolve(names)
	if err != nil {
		return nil, fmt.Errorf("-predictors: %w", err)
	}
	return resolved, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bglserved: "+format+"\n", args...)
}

// trainingLog loads or generates the raw records to train on.
func trainingLog(logPath string, trainFrac float64, profile string, scale float64, seed uint64) ([]raslog.Event, string, error) {
	if logPath != "" {
		if trainFrac <= 0 || trainFrac > 1 {
			return nil, "", fmt.Errorf("-train must be in (0,1]")
		}
		events, err := raslog.ReadAnyFile(logPath)
		if err != nil {
			return nil, "", err
		}
		raslog.SortEvents(events)
		cut := int(float64(len(events)) * trainFrac)
		if cut < 1 {
			return nil, "", fmt.Errorf("log %s too small for -train %v", logPath, trainFrac)
		}
		return events[:cut], fmt.Sprintf("%s (first %.0f%%)", logPath, trainFrac*100), nil
	}
	var p bglsim.Profile
	switch strings.ToLower(profile) {
	case "anl":
		p = bglsim.ANLProfile()
	case "sdsc":
		p = bglsim.SDSCProfile()
	default:
		return nil, "", fmt.Errorf("unknown profile %q (want anl or sdsc)", profile)
	}
	p = p.Scaled(scale)
	if seed != 0 {
		p.Seed = seed
	}
	gen, err := bglsim.Generate(p)
	if err != nil {
		return nil, "", err
	}
	return gen.Events, fmt.Sprintf("generated %s log (scale %v)", p.Name, scale), nil
}

// finalReport renders the drained server's aggregate state from the
// same exposition /metrics serves.
func finalReport(srv *serve.Server) string {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return ""
	}
	rec := newRecorder()
	srv.ServeHTTP(rec, req)
	var b strings.Builder
	for _, line := range strings.Split(rec.body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "latency_seconds_bucket") {
			continue
		}
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// recorder is a minimal in-process ResponseWriter (net/http/httptest
// is test-only by convention; this keeps the daemon self-contained).
type recorder struct {
	header http.Header
	body   strings.Builder
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(int)             {}
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
