// Package bglpred is a Go reproduction of "A Meta-Learning Failure
// Predictor for Blue Gene/L Systems" (Gujrati, Li, Lan, Thakur,
// White; ICPP 2007): a three-phase failure predictor for Blue Gene/L
// RAS logs — event preprocessing, statistical and association-rule
// base prediction, and coverage-based meta-learning — together with a
// calibrated Blue Gene/L machine and RAS-log simulator standing in
// for the proprietary ANL and SDSC logs the paper evaluated on.
//
// # Quick start
//
//	profile := bglpred.ANLProfile().Scaled(0.05)
//	gen, _ := bglpred.Generate(profile)
//	pipeline := bglpred.NewPipeline(bglpred.Config{})
//	report, _ := pipeline.Run(gen.Events, nil)
//	fmt.Println(report.Evaluation.MetaSweep[0].Result.MeanPrecision)
//
// The packages under internal/ carry the implementation: raslog (RAS
// event model), catalog (the 101-subcategory taxonomy), bglsim (the
// machine/workload/fault simulator), preprocess (Phase 1), assoc
// (Apriori and FP-growth), predictor (Phases 2-3), eval (10-fold
// cross-validation), online (streaming deployment), and ftsim
// (proactive-checkpointing consumer).
package bglpred

import (
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/cluster"
	"bglpred/internal/core"
	"bglpred/internal/ecg"
	"bglpred/internal/eval"
	"bglpred/internal/faultinject"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/model"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// Re-exported core types. The facade keeps downstream code to one
// import while the implementation stays modular.
type (
	// Event is a raw RAS record (paper Table 2 attributes).
	Event = raslog.Event
	// Severity is the CMCS severity ladder.
	Severity = raslog.Severity
	// Location is a BG/L packaging-hierarchy location.
	Location = raslog.Location
	// UniqueEvent is a compressed Phase 1 output event.
	UniqueEvent = preprocess.Event
	// Subcategory is a leaf of the 101-entry event taxonomy.
	Subcategory = catalog.Subcategory
	// MainCategory is one of the eight high-level categories.
	MainCategory = catalog.Main
	// Profile describes a synthetic system (ANL- or SDSC-like).
	Profile = bglsim.Profile
	// GenResult is a generated log with ground truth.
	GenResult = bglsim.Result
	// Config parameterizes the three-phase pipeline.
	Config = core.Config
	// Pipeline is the three-phase predictor.
	Pipeline = core.Pipeline
	// Report is a full end-to-end study result.
	Report = core.Report
	// Evaluation holds the Table 5 / Figure 4 / Figure 5 results.
	Evaluation = core.Evaluation
	// Warning is one prediction.
	Warning = predictor.Warning
	// Predictor is the common trainable-predictor interface.
	Predictor = predictor.Predictor
	// BasePredictor is the base-predictor interface the meta-learner
	// arbitrates over; NewBasePredictor builds one by name.
	BasePredictor = predictor.Base
	// PredictorKind classifies a base as point-of-failure or precursor
	// for arbitration purposes.
	PredictorKind = predictor.Kind
	// ECGPredictor is the event-correlation-graph base predictor
	// (name "ecg"): it mines a directed co-occurrence graph
	// over event signatures and warns when observed precursors reach a
	// fatal node through qualified edge chains.
	ECGPredictor = ecg.Predictor
	// ECGConfig parameterizes the event-correlation-graph predictor.
	ECGConfig = ecg.Config
	// SweepPoint is one prediction-window sweep entry.
	SweepPoint = eval.SweepPoint
	// Outcome is a precision/recall evaluation outcome.
	Outcome = eval.Outcome
	// OnlineEngine is the streaming deployment of the meta-learner.
	OnlineEngine = online.Engine
	// OnlineConfig parameterizes the streaming engine.
	OnlineConfig = online.Config
	// OnlineSnapshot is a point-in-time view of an engine's counters.
	OnlineSnapshot = online.Snapshot
	// Server is the sharded HTTP prediction service (cmd/bglserved).
	Server = serve.Server
	// ServerConfig parameterizes the prediction service.
	ServerConfig = serve.Config
	// ServedAlert is one alarm as exposed over the service's HTTP API.
	ServedAlert = serve.Alert
	// ModelArtifact is a trained predictor in its versioned on-disk
	// form: rules, statistical tables, and training provenance.
	ModelArtifact = model.Artifact
	// ModelFileInfo describes a saved artifact file (path, format
	// version, SHA-256, size).
	ModelFileInfo = model.Info
	// ModelProvenance records where and how a model was trained.
	ModelProvenance = model.Provenance
	// ModelInfo is the serving identity of a model (version, hash,
	// source) as exposed on GET /v1/model.
	ModelInfo = serve.ModelInfo
	// Checkpoint is one persisted snapshot of a server's shard state.
	Checkpoint = lifecycle.Checkpoint
	// Checkpointer periodically snapshots a server's shard state.
	Checkpointer = lifecycle.Checkpointer
	// CheckpointerConfig parameterizes the checkpointer.
	CheckpointerConfig = lifecycle.CheckpointerConfig
	// Recorder buffers recently ingested records for retraining.
	Recorder = lifecycle.Recorder
	// Retrainer re-mines the model over recent traffic and hot-swaps
	// it into a running server.
	Retrainer = lifecycle.Retrainer
	// RetrainerConfig parameterizes the retrainer.
	RetrainerConfig = lifecycle.RetrainerConfig
	// RetryPolicy bounds the backoff persistence writes use against
	// transient I/O failures.
	RetryPolicy = lifecycle.RetryPolicy
	// QuarantinedRecord is one malformed ingest line parked at
	// GET /v1/quarantine instead of failing its batch.
	QuarantinedRecord = serve.QuarantinedRecord
	// FaultInjector is the deterministic fault-injection harness for
	// chaos tests: arm named fault points with schedules, wire it into
	// ServerConfig.Inject or wrap a filesystem with NewFaultFs. Nil
	// disables every point.
	FaultInjector = faultinject.Injector
	// FaultPoint names one code location a FaultInjector can perturb.
	FaultPoint = faultinject.Point
	// FaultPlan schedules when and how an armed fault point fires.
	FaultPlan = faultinject.Plan
	// ClusterGate is the multi-node ingest router (cmd/bglgate): an
	// http.Handler routing ingest across several Servers over a
	// consistent-hash ring and merging their read paths.
	ClusterGate = cluster.Gate
	// ClusterGateConfig parameterizes a ClusterGate.
	ClusterGateConfig = cluster.Config
	// ClusterRing is the consistent-hash ring mapping midplane keys to
	// backends.
	ClusterRing = cluster.Ring
	// ClusterAlert is a served alert annotated with its backend of
	// origin, as returned by the gate's merged read path.
	ClusterAlert = cluster.Alert
	// ClusterStatus is the body of the gate's GET /v1/cluster/status.
	ClusterStatus = cluster.StatusResponse
)

// Severity levels, re-exported.
const (
	Info    = raslog.Info
	Warn    = raslog.Warning
	Severe  = raslog.Severe
	Error   = raslog.Error
	Fatal   = raslog.Fatal
	Failure = raslog.Failure
)

// ANLProfile returns the profile calibrated to the Argonne log
// (paper Tables 1 and 4).
func ANLProfile() Profile { return bglsim.ANLProfile() }

// SDSCProfile returns the profile calibrated to the San Diego log.
func SDSCProfile() Profile { return bglsim.SDSCProfile() }

// Profiles returns both calibrated profiles.
func Profiles() []Profile { return bglsim.Profiles() }

// Generate synthesizes a raw RAS log from a profile.
func Generate(p Profile) (*GenResult, error) { return bglsim.Generate(p) }

// NewPipeline builds a three-phase pipeline; the zero Config
// reproduces the paper's settings (300 s compression, confidence 0.2,
// 10-fold cross-validation, coverage-based meta-learning) with one
// deliberate deviation: minimum support defaults to 0.01, not the
// paper's 0.04, because 0.04 over fatal-anchored event-sets would
// exclude the rule families the paper's own Figure 3 prints (see
// DESIGN.md §"Minimum support" and the ablation-support experiment;
// set Rule.MinSupport to 0.04 for the paper's value).
func NewPipeline(cfg Config) *Pipeline { return core.New(cfg) }

// NewOnlineEngine wraps a trained meta-learner (from
// Pipeline.Train(...).Meta) as a streaming prediction engine.
func NewOnlineEngine(meta *predictor.Meta, cfg OnlineConfig) *OnlineEngine {
	return online.New(meta, cfg)
}

// NewServer wraps a trained meta-learner as the sharded HTTP
// prediction service: an http.Handler ingesting raw records over
// POST /v1/ingest and exposing alarms and metrics (see cmd/bglserved
// for the standalone daemon). Call Close to drain the shards.
func NewServer(meta *predictor.Meta, cfg ServerConfig) *Server {
	return serve.New(meta, cfg)
}

// PackageModel wraps a trained meta-learner (from
// Pipeline.Train(...).Meta) as a saveable artifact; prov records
// where the model came from. Save the result with its Save method,
// reload it with LoadModel, and rebuild the predictor with its Meta
// method.
func PackageModel(meta *predictor.Meta, prov ModelProvenance) (*ModelArtifact, error) {
	return model.FromMeta(meta, prov)
}

// LoadModel reads and integrity-checks a saved model artifact.
func LoadModel(path string) (*ModelArtifact, ModelFileInfo, error) {
	return model.Load(path)
}

// VerifyModel integrity-checks a saved model artifact without
// decoding it.
func VerifyModel(path string) (ModelFileInfo, error) { return model.Verify(path) }

// NewRecorder keeps at most window of event time of accepted traffic
// as Phase 1's unique events, at most max of them (zero values select
// the defaults: 6 h, 250k — some 18 M raw records at 73:1). Wire its
// Shard method as ServerConfig.OnRecord and hand it to NewRetrainer;
// Observe fills one with no server behind it.
func NewRecorder(window time.Duration, max int) *Recorder {
	return lifecycle.NewRecorder(window, max)
}

// NewCheckpointer periodically snapshots srv's shard state into
// cfg.Ledger; its Restore installs the newest snapshot on the next
// start, pairing it with the model it was taken against.
func NewCheckpointer(srv *Server, cfg CheckpointerConfig) *Checkpointer {
	return lifecycle.NewCheckpointer(srv, cfg)
}

// NewRetrainer re-mines the model over rec's window and hot-swaps the
// result into srv's shards, either periodically (Run) or on demand
// (RetrainNow).
func NewRetrainer(srv *Server, rec *Recorder, cfg RetrainerConfig) *Retrainer {
	return lifecycle.NewRetrainer(srv, rec, cfg)
}

// NewBasePredictor builds a fresh untrained base predictor by name
// ("statistical" (alias "stat"), "rule" or "ecg"), with default
// tuning. The set is closed: Config.Predictors, the -predictors flags
// and model artifacts select from the same three.
func NewBasePredictor(name string) (BasePredictor, error) { return core.NewBase(name) }

// ResolvePredictors canonicalizes a base-predictor selection (e.g.
// from a comma-split flag), failing fast on unknown, duplicate or no
// names with an error that lists the known set.
func ResolvePredictors(names []string) ([]string, error) { return core.Resolve(names) }

// NewECGPredictor builds the event-correlation-graph base predictor
// with the given configuration (zero value selects the defaults).
func NewECGPredictor(cfg ECGConfig) *ECGPredictor { return ecg.New(cfg) }

// PaperWindows returns the paper's prediction windows, 5 to 60
// minutes in 5-minute steps.
func PaperWindows() []time.Duration { return eval.PaperWindows() }

// Subcategories returns the full 101-entry event taxonomy (paper
// Table 3). The slice is shared; do not mutate.
func Subcategories() []Subcategory { return catalog.All() }

// SubcategoryByID resolves a taxonomy entry by its dense ID (the item
// identifiers appearing in mined rules).
func SubcategoryByID(id int) (*Subcategory, bool) { return catalog.ByID(id) }

// SubcategoryName resolves a rule item ID to its name, for rendering
// rules in the paper's Figure 3 style via assoc.Rule.Format.
func SubcategoryName(id int) string {
	if s, ok := catalog.ByID(id); ok {
		return s.Name
	}
	return "?"
}

// ReadLogFile loads a serialized RAS log in either the text dialect
// or the binary wire-frame format (sniffed by magic) — whatever
// cmd/bglgen or cmd/bglconvert wrote.
func ReadLogFile(path string) ([]Event, error) { return raslog.ReadAnyFile(path) }

// WriteLogFile saves a raw RAS log.
func WriteLogFile(path string, events []Event) error { return raslog.WriteFile(path, events) }

// NewFaultInjector builds a deterministic fault-injection harness
// seeded for reproducible chaos runs. Arm points with Set, wire it
// into ServerConfig.Inject, and wrap filesystems with NewFaultFs.
func NewFaultInjector(seed uint64) *FaultInjector { return faultinject.New(seed) }

// NewFaultFs wraps the filesystem seam of the durable state (nil =
// the real filesystem) so inj's fs.* fault points can inject ENOSPC,
// short writes, failed fsyncs, renames and truncates, and read
// corruption. Pass it as RetrainerConfig.FS or as the FS of the
// ledger checkpoints go to.
func NewFaultFs(inj *FaultInjector, base ledger.FS) ledger.FS {
	return faultinject.NewFs(inj, base)
}

// NewClusterGate builds the multi-node ingest router over the
// configured bglserved base URLs (see cmd/bglgate for the standalone
// daemon). Call Start for background probing and stream fan-in, Close
// to shut down.
func NewClusterGate(cfg ClusterGateConfig) (*ClusterGate, error) { return cluster.New(cfg) }

// NewClusterRing builds a consistent-hash ring over backend
// identities with vnodes virtual nodes per member (<=0 selects the
// default, 128).
func NewClusterRing(members []string, vnodes int) *ClusterRing {
	return cluster.NewRing(members, vnodes)
}

// ClusterLocationKey returns the ring routing key for a record's
// location: its rack/midplane prefix, the same granularity the
// in-process sharder partitions by.
func ClusterLocationKey(loc Location) string { return cluster.LocationKey(loc) }
