package lifecycle

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/core"
	"bglpred/internal/edge"
	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/serve"
)

// RetrainerConfig parameterizes background retraining.
type RetrainerConfig struct {
	// Interval between retrain attempts; default 10 min.
	Interval time.Duration
	// MinEvents skips a retrain when the recorder's events stand for
	// fewer raw records (Recorder.Len; too little data mines a
	// degenerate rule set); default 1000.
	MinEvents int
	// Pipeline carries the mining parameters retrains use (min
	// support, confidence thresholds, rule window, policy, ...). The
	// zero value reproduces the repository defaults. The window was
	// compressed under the preprocess defaults, so RetrainNow refuses
	// a Pipeline.Preprocess that compresses otherwise.
	Pipeline core.Config
	// Dir, when non-empty, persists each retrained model: the active
	// artifact at ModelPath(Dir) plus an immutable versioned copy
	// (model-v<N>.bglm, a hard link to the same file) per generation,
	// so operators can diff or roll back models.
	Dir string
	// FS is the filesystem artifacts are written through (nil =
	// ledger.OS); fault-injection tests interpose faultinject.Fs here.
	FS ledger.FS
	// Retry bounds the backoff against transient artifact-write
	// failures; the zero value selects the defaults.
	Retry RetryPolicy
	// Source tags the provenance of retrained models (e.g. "retrain
	// window=6h"); a sensible default is derived when empty.
	Source string
	// Ledger, when set, receives a KindModel provenance entry after
	// each retrained artifact lands, chaining the new generation's
	// version/SHA/path into the audit trail so bglaudit can verify
	// every model-v<N>.bglm back to genesis.
	Ledger *ledger.Ledger
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Retrainer re-mines the model over the recorder's sliding window of
// unique events and hot-swaps the result into the server. Retrains are
// serialized: the periodic loop and POST /v1/model/reload share one
// mutex, so two trainings never race each other or double-swap.
type Retrainer struct {
	srv *serve.Server
	rec *Recorder
	cfg RetrainerConfig

	mu             sync.Mutex         // serializes RetrainNow
	window         []preprocess.Point // the last retrain's copy of the recorder's column; mu held
	persistRetries atomic.Int64
	persistGiveups atomic.Int64
	lastCycle      atomic.Int64 // ns the last completed retrain took
	stages         [numStages]*edge.Histogram
}

// NewRetrainer builds a retrainer over a server and its recorder.
func NewRetrainer(srv *serve.Server, rec *Recorder, cfg RetrainerConfig) *Retrainer {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 1000
	}
	if cfg.Source == "" {
		cfg.Source = "background retrain"
	}
	if cfg.FS == nil {
		cfg.FS = ledger.OS
	}
	r := &Retrainer{srv: srv, rec: rec, cfg: cfg}
	for i := range r.stages {
		r.stages[i] = edge.NewHistogram(edge.LatencyBounds)
	}
	return r
}

// PersistRetries reports artifact-write re-tries spent; PersistGiveUps
// the retrains whose artifact never landed (the in-memory hot-swap
// still happens for the versioned copy path, never for the active
// artifact — see RetrainNow).
func (r *Retrainer) PersistRetries() int64 { return r.persistRetries.Load() }
func (r *Retrainer) PersistGiveUps() int64 { return r.persistGiveups.Load() }

// LastCycle reports how long the last completed retrain took, from the
// recorder's window to the swapped model; zero before the first.
func (r *Retrainer) LastCycle() time.Duration { return time.Duration(r.lastCycle.Load()) }

// RetrainNow trains a new model on the recorder's current window —
// already Phase 1's output, so the cycle is training, packaging and
// the swap — persists it (when Dir is set), and hot-swaps it into
// every serving shard. It returns the identity of the model now
// serving, or an error that leaves the previous model serving
// untouched — a failed retrain never degrades the running service: too
// few records in the window, a Pipeline.Preprocess other than the
// defaults the window was compressed under, a training failure, or an
// artifact that would not persist. Artifact writes retry with backoff;
// an exhausted budget on the active artifact aborts the swap with an
// error wrapping ErrModelPersistGiveUp (serving a model whose SHA names
// bytes that don't exist would poison checkpoints).
func (r *Retrainer) RetrainNow() (serve.ModelInfo, error) {
	return r.retrainNow(context.Background())
}

func (r *Retrainer) retrainNow(ctx context.Context) (serve.ModelInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	started := time.Now()
	lap := r.stopwatch(started)
	meta, prov, err := r.train(lap)
	if err != nil {
		return serve.ModelInfo{}, err
	}
	artifact, err := model.FromMeta(meta, prov)
	if err != nil {
		return serve.ModelInfo{}, fmt.Errorf("lifecycle: retrain produced an incomplete model: %w", err)
	}

	// Persist before swapping so the SHA in the published ModelInfo
	// names bytes that actually exist on disk; a crash between save
	// and swap leaves a newer artifact with older state, which
	// Checkpointer.Restore pairs back up at restore time. The artifact
	// is encoded and written once: the versioned copy below is a second
	// name for the same file.
	var sha string
	if r.cfg.Dir != "" {
		framed, info, err := artifact.Encode()
		if err != nil {
			return serve.ModelInfo{}, fmt.Errorf("lifecycle: encode retrained model: %w", err)
		}
		lap(stageEncode)
		retries, err := retryWithBackoff(ctx, r.cfg.Retry, func() error {
			return ledger.WriteFileAtomic(r.cfg.FS, ModelPath(r.cfg.Dir), framed, true)
		})
		r.persistRetries.Add(int64(retries))
		if err != nil {
			r.persistGiveups.Add(1)
			return serve.ModelInfo{}, fmt.Errorf("%w: %w", ErrModelPersistGiveUp, err)
		}
		lap(stagePersist)
		sha = info.SHA256
	} else {
		lap(stageEncode)
	}

	newInfo := r.srv.SwapModel(meta, serve.ModelInfo{
		SHA256:    sha,
		TrainedAt: prov.TrainedAt,
		Source:    r.cfg.Source,
	})
	lap(-1)

	// Immutable per-generation copy, named by the version just
	// assigned: a hard link to the active artifact's fsynced file,
	// which nothing rewrites in place. Best effort with the same retry
	// budget: the active artifact already landed, so a lost versioned
	// copy costs only the rollback convenience.
	if r.cfg.Dir != "" {
		retries, err := retryWithBackoff(ctx, r.cfg.Retry, func() error {
			return ledger.LinkFileAtomic(r.cfg.FS, ModelPath(r.cfg.Dir), VersionedModelPath(r.cfg.Dir, newInfo.Version))
		})
		r.persistRetries.Add(int64(retries))
		if err != nil {
			r.logf("versioned artifact copy: %v", err)
		}
		lap(stageCopy)
	}
	// Chain the new generation into the audit ledger. Retried with the
	// same budget as the artifact writes; a give-up costs only the
	// audit entry (the artifact and swap already happened), so it logs
	// rather than fails the retrain.
	if r.cfg.Ledger != nil && sha != "" {
		payload, merr := json.Marshal(ModelLedgerRecord{
			Version:   newInfo.Version,
			SHA256:    sha,
			Path:      VersionedModelPath(r.cfg.Dir, newInfo.Version),
			TrainedAt: prov.TrainedAt,
			Source:    r.cfg.Source,
		})
		if merr == nil {
			retries, err := retryWithBackoff(ctx, r.cfg.Retry, func() error {
				_, appendErr := r.cfg.Ledger.Append(ledger.KindModel, payload)
				return appendErr
			})
			r.persistRetries.Add(int64(retries))
			if err != nil {
				r.logf("model provenance ledger entry: %v", err)
			}
		}
		lap(stageLedger)
	}
	cycle := time.Since(started)
	r.lastCycle.Store(int64(cycle))
	r.logf("retrained model v%d on %d records (%d unique, %d rules, sha %.12s) in %v",
		newInfo.Version, prov.Records, prov.Unique, newInfo.Rules, sha, cycle.Round(time.Millisecond))
	return newInfo, nil
}

// retrainStage names one timed stage of a retrain cycle.
type retrainStage int

const (
	stageWindow  retrainStage = iota // copy the recorder's column
	stageTrain                       // train the bases
	stageEncode                      // capture the sections, encode the artifact
	stagePersist                     // write and fsync the active artifact
	stageCopy                        // link the versioned copy
	stageLedger                      // append the model record
	numStages
)

// RetrainStages counts the stages Retrainer.Stage reports.
const RetrainStages = int(numStages)

var stageNames = [numStages]string{"window", "train", "encode", "persist", "copy", "ledger"}

// stopwatch returns a lap timer started at from: lap(s) observes the
// time since the previous lap as stage s, and a negative s skips the
// interval (the swap, a few microseconds, belongs to no stage).
func (r *Retrainer) stopwatch(from time.Time) func(retrainStage) {
	mark := from
	return func(s retrainStage) {
		now := time.Now()
		if s >= 0 {
			r.stages[s].Observe(now.Sub(mark))
		}
		mark = now
	}
}

// Stage reports the i-th stage of a retrain cycle, i in
// [0, RetrainStages), by name and with its latency histogram: window
// (the recorder's column copied out), train, encode (sections captured
// and the artifact encoded), persist (the active artifact written and
// fsynced), copy (the versioned copy linked) and ledger (the model
// record appended).
func (r *Retrainer) Stage(i int) (string, *edge.Histogram) { return stageNames[i], r.stages[i] }

// train fits a model on the recorder's current window and describes
// its provenance; r.mu held. It refuses Phase 1 options other than the
// defaults the window was compressed under, and a window that stands
// for fewer than MinEvents records. lap times the window copy and the
// training.
//
// The bases train on the window's column of Points, copied into
// r.window, the buffer the last retrain used, rather than into a fresh
// slice: training only reads it, and no trained model keeps it.
func (r *Retrainer) train(lap func(retrainStage)) (*predictor.Meta, model.Provenance, error) {
	o, d := r.cfg.Pipeline.Preprocess, preprocess.DefaultThreshold
	if o.TemporalThreshold != 0 && o.TemporalThreshold != d || o.SpatialThreshold != 0 && o.SpatialThreshold != d || o.TemporalKeyIgnoresCategory {
		return nil, model.Provenance{}, fmt.Errorf("lifecycle: the retrain pipeline asks for Phase 1 options %+v, but the window was compressed under the preprocess defaults; serving model unchanged",
			o)
	}
	points, records, newest := r.rec.training(r.window)
	r.window = points
	if records < r.cfg.MinEvents {
		return nil, model.Provenance{}, fmt.Errorf("lifecycle: only %d records in the retraining window (need %d); serving model unchanged",
			records, r.cfg.MinEvents)
	}
	lap(stageWindow)
	trained, err := core.New(r.cfg.Pipeline).TrainPoints(points)
	if err != nil {
		return nil, model.Provenance{}, fmt.Errorf("lifecycle: retrain: %w", err)
	}
	lap(stageTrain)
	return trained.Meta, model.Provenance{
		TrainedAt: time.Now().UTC(),
		Source:    r.cfg.Source,
		Records:   records,
		Unique:    len(points),
		LogStart:  points[0].Time(),
		LogEnd:    newest,
		Params:    model.ParamsOf(trained.Meta),
	}, nil
}

// VersionedModelPath names the immutable artifact copy for one model
// generation.
func VersionedModelPath(dir string, version int64) string {
	return filepath.Join(dir, fmt.Sprintf("model-v%d.bglm", version))
}

// Run retrains on the configured interval until ctx is cancelled.
// Failed or skipped retrains are logged and retried next tick.
func (r *Retrainer) Run(ctx context.Context) {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := r.retrainNow(ctx); err != nil {
				r.logf("%v", err)
			}
		case <-ctx.Done():
			return
		}
	}
}

func (r *Retrainer) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
