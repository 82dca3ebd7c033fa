// Package core assembles the paper's three-phase failure predictor
// end to end (paper Figure 1): Phase 1 event preprocessing, Phase 2
// base prediction (statistical and rule-based), and Phase 3
// meta-learning prediction, plus the paper's 10-fold cross-validation
// protocol over prediction-window sweeps.
package core

import (
	"fmt"
	"strings"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/ecg"
	"bglpred/internal/eval"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/stats"
)

// Config parameterizes the whole pipeline. The zero value reproduces
// the paper's settings.
type Config struct {
	// Preprocess configures Phase 1.
	Preprocess preprocess.Options
	// Rule configures the rule-based base predictor.
	Rule predictor.RuleConfig
	// StatMinLead, StatMaxWindow and StatMinProbability configure the
	// statistical base predictor (defaults: 5m, 1h, 0.4).
	StatMinLead        time.Duration
	StatMaxWindow      time.Duration
	StatMinProbability float64
	// ForceTriggers pins the statistical trigger categories (the paper
	// hardcodes Network and Iostream); empty means learn them.
	ForceTriggers []catalog.Main
	// Policy is the meta-learner arbitration policy.
	Policy predictor.Policy
	// Predictors selects the base predictors the meta-learner
	// arbitrates over, by name: "statistical" (alias "stat"), "rule"
	// or "ecg". Empty selects the classic pair, the paper's
	// configuration. Statistical and rule selections carry this
	// Config's tuning; ecg gets its defaults.
	Predictors []string
	// Folds is the cross-validation fold count (paper: 10).
	Folds int
}

func (c Config) withDefaults() Config {
	if c.Folds == 0 {
		c.Folds = 10
	}
	return c
}

// Pipeline is a configured three-phase predictor.
type Pipeline struct {
	cfg Config
}

// New builds a pipeline (zero Config reproduces the paper).
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Preprocess runs Phase 1 on a raw, time-sorted log.
func (p *Pipeline) Preprocess(raw []raslog.Event) *preprocess.Result {
	return preprocess.Run(raw, p.cfg.Preprocess)
}

// newStatistical builds a configured statistical predictor.
func (p *Pipeline) newStatistical() *predictor.Statistical {
	return &predictor.Statistical{
		MinLead:        p.cfg.StatMinLead,
		MaxWindow:      p.cfg.StatMaxWindow,
		MinProbability: p.cfg.StatMinProbability,
		ForceTriggers:  p.cfg.ForceTriggers,
	}
}

// newRule builds a configured rule predictor.
func (p *Pipeline) newRule() *predictor.Rule {
	return &predictor.Rule{Config: p.cfg.Rule}
}

// predictors is the base selection: Config.Predictors, or the classic
// pair when that is empty.
func (p *Pipeline) predictors() []string {
	if len(p.cfg.Predictors) == 0 {
		return []string{predictor.SourceStatistical, predictor.SourceRule}
	}
	return p.cfg.Predictors
}

// knownPredictors lists every name newBase accepts, sorted, for error
// messages.
const knownPredictors = "ecg, rule, stat, statistical"

// newBase builds a fresh, untrained base predictor by name, with this
// pipeline's statistical and rule tuning. It is the one table of base
// predictors: Config.Predictors, the -predictors flags and model
// artifact sections all select bases through it.
func (p *Pipeline) newBase(name string) (predictor.Base, error) {
	switch strings.TrimSpace(name) {
	case predictor.SourceStatistical, "stat":
		return p.newStatistical(), nil
	case predictor.SourceRule:
		return p.newRule(), nil
	case ecg.Source:
		return ecg.New(ecg.Config{}), nil
	}
	return nil, fmt.Errorf("predictor: unknown base predictor %q (known: %s)", name, knownPredictors)
}

// newBases builds the bases a selection names, refusing an unknown,
// duplicate or empty selection.
func (p *Pipeline) newBases(names []string) ([]predictor.Base, error) {
	bases := make([]predictor.Base, 0, len(names))
	for _, name := range names {
		b, err := p.newBase(name)
		if err != nil {
			return nil, err
		}
		for _, prev := range bases {
			if prev.Name() == b.Name() {
				return nil, fmt.Errorf("predictor: base predictor %q selected twice (known: %s)", b.Name(), knownPredictors)
			}
		}
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("predictor: empty base predictor selection (known: %s)", knownPredictors)
	}
	return bases, nil
}

// newMeta builds a configured meta-learner over the selected base
// predictors.
func (p *Pipeline) newMeta() (*predictor.Meta, error) {
	bases, err := p.newBases(p.predictors())
	if err != nil {
		return nil, err
	}
	m := predictor.NewMetaBases(bases...)
	m.Policy = p.cfg.Policy
	return m, nil
}

// NewBase builds a fresh, untrained base predictor by name ("statistical"
// (alias "stat"), "rule" or "ecg") with default tuning. An unknown name
// fails, listing the known ones.
func NewBase(name string) (predictor.Base, error) { return New(Config{}).newBase(name) }

// Resolve canonicalizes a base-predictor selection (e.g. from a
// comma-split flag), refusing an unknown, duplicate or empty one with
// an error that lists the known names.
func Resolve(names []string) ([]string, error) {
	bases, err := New(Config{}).newBases(names)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(bases))
	for i, b := range bases {
		out[i] = b.Name()
	}
	return out, nil
}

// Trained is the meta-learner fitted on one training stream, with
// typed handles on its classic bases.
type Trained struct {
	// Statistical and Rule are Meta.Stat and Meta.Rule — the meta's
	// own bases, not copies — and nil when Config.Predictors leaves
	// that base out.
	Statistical *predictor.Statistical
	Rule        *predictor.Rule
	Meta        *predictor.Meta
}

// Train fits the meta-learner on a unique-event stream: each selected
// base trains once, on that one learning set (paper §3.3).
func (p *Pipeline) Train(events []preprocess.Event) (*Trained, error) {
	return p.TrainPoints(preprocess.Points(events))
}

// TrainPoints is Train on the stream's column of Points.
func (p *Pipeline) TrainPoints(points []preprocess.Point) (*Trained, error) {
	m, err := p.newMeta()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := m.TrainSegments([][]preprocess.Point{points}); err != nil {
		return nil, fmt.Errorf("core: meta: %w", err)
	}
	return &Trained{Statistical: m.Stat, Rule: m.Rule, Meta: m}, nil
}

// Evaluation is the paper's full accuracy study on one log.
type Evaluation struct {
	// Statistical is the Table 5 experiment: the statistical predictor
	// cross-validated with its (MinLead, 1h] correlation window.
	Statistical eval.CVResult
	// RuleSweep is the Figure 4 experiment: the rule-based predictor
	// cross-validated per prediction window.
	RuleSweep []eval.SweepPoint
	// MetaSweep is the Figure 5 experiment: the meta-learner
	// cross-validated per prediction window.
	MetaSweep []eval.SweepPoint
}

// Evaluate runs the paper's evaluation protocol over the unique-event
// stream: Table 5, Figure 4, and Figure 5, with Folds-fold
// cross-validation at each point.
func (p *Pipeline) Evaluate(events []preprocess.Event, windows []time.Duration) (*Evaluation, error) {
	if _, err := p.newMeta(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(windows) == 0 {
		windows = eval.PaperWindows()
	}
	out := &Evaluation{}
	statWindow := p.cfg.StatMaxWindow
	if statWindow == 0 {
		statWindow = time.Hour
	}
	var err error
	out.Statistical, err = eval.CrossValidate(events, p.cfg.Folds,
		func() predictor.Predictor { return p.newStatistical() }, statWindow)
	if err != nil {
		return nil, fmt.Errorf("core: statistical CV: %w", err)
	}
	out.RuleSweep, err = eval.WindowSweep(events, p.cfg.Folds,
		func() predictor.Predictor { return p.newRule() }, windows)
	if err != nil {
		return nil, fmt.Errorf("core: rule sweep: %w", err)
	}
	out.MetaSweep, err = eval.WindowSweep(events, p.cfg.Folds,
		func() predictor.Predictor {
			m, _ := p.newMeta() // the selection was validated above
			return m
		}, windows)
	if err != nil {
		return nil, fmt.Errorf("core: meta sweep: %w", err)
	}
	return out, nil
}

// Report is the complete end-to-end result for one raw log.
type Report struct {
	// Preprocess is the Phase 1 output.
	Preprocess *preprocess.Result
	// FatalByMain is the paper's Table 4 for this log.
	FatalByMain map[catalog.Main]int
	// GapCDF is the inter-failure gap distribution behind Figure 2.
	GapCDF *stats.CDF
	// Evaluation holds Table 5, Figure 4 and Figure 5.
	Evaluation *Evaluation
}

// Run executes the full three-phase study on a raw log: preprocess,
// analyze, cross-validate everything.
func (p *Pipeline) Run(raw []raslog.Event, windows []time.Duration) (*Report, error) {
	pre := p.Preprocess(raw)
	fatal := preprocess.Fatal(pre.Events)
	times := make([]time.Time, len(fatal))
	for i := range fatal {
		times[i] = fatal[i].Time
	}
	ev, err := p.Evaluate(pre.Events, windows)
	if err != nil {
		return nil, err
	}
	return &Report{
		Preprocess:  pre,
		FatalByMain: preprocess.CountByMain(pre.Events, true),
		GapCDF:      stats.NewCDF(stats.InterArrivalGaps(times)),
		Evaluation:  ev,
	}, nil
}
