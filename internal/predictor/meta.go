package predictor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/preprocess"
)

// Policy selects how the meta-learner arbitrates between base
// predictions. DESIGN.md §5 lists the alternatives as an ablation.
// Model artifacts store a policy as its number, so the numbers are
// fixed; 2 was max-confidence, whose gate was coverage's.
type Policy int

const (
	// PolicyCoverage is the paper's coverage-based stacked
	// generalization (§3.3): non-fatal events in the window route to
	// the precursor methods, fatal-only windows route to the
	// point-of-failure method, and when both kinds of evidence produce
	// a prediction the higher confidence wins.
	PolicyCoverage Policy = 0
	// PolicyStrictCoverage reads §3.3 case (2) literally: the
	// statistical method is consulted only when NO non-fatal event is
	// in the observation window. With realistic background noise the
	// window is rarely empty, so this variant starves the statistical
	// path — the ablation shows why the operative reading above is the
	// one that reproduces the paper's Figure 5.
	PolicyStrictCoverage Policy = 1
	// PolicyRulePriority suppresses statistical predictions whenever a
	// precursor warning (rule or correlation-graph) is standing,
	// regardless of confidence.
	PolicyRulePriority Policy = 3
	// PolicyUnion issues every base prediction (no arbitration) — an
	// upper bound on recall and lower bound on precision.
	PolicyUnion Policy = 4
)

// Policies lists every policy, in numeric order.
func Policies() []Policy {
	return []Policy{PolicyCoverage, PolicyStrictCoverage, PolicyRulePriority, PolicyUnion}
}

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyCoverage:
		return "coverage"
	case PolicyStrictCoverage:
		return "strict-coverage"
	case PolicyRulePriority:
		return "rule-priority"
	case PolicyUnion:
		return "union"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Meta is the meta-learning predictor (paper §3.3): it trains its
// base methods once, on the same stream, and adaptively integrates
// their predictions. The classic pair keeps typed fields; any further
// base predictor (the event-correlation-graph method) rides in Extras,
// and arbitration treats all bases uniformly: the most specific
// covering predictor wins, confidence breaks ties.
// A Meta arbitrates over exactly the bases it holds; build one with
// NewMeta (the paper's pair) or NewMetaBases.
type Meta struct {
	// Stat and Rule are the paper's base predictors, nil when the meta
	// was built without them.
	Stat *Statistical
	Rule *Rule
	// Extras are additional base predictors arbitrated alongside the
	// classic pair, in order.
	Extras []Base
	// Policy is the arbitration policy; zero value is the paper's
	// coverage-based policy.
	Policy Policy
}

// NewMeta returns a meta-learner over fresh base predictors with
// paper defaults.
func NewMeta() *Meta {
	return &Meta{Stat: NewStatistical(), Rule: NewRule()}
}

// NewMetaBases returns a meta-learner over exactly the given base
// predictors (typically built by name through core's table). A
// *Statistical or *Rule lands in its typed field; everything else in
// Extras.
func NewMetaBases(bases ...Base) *Meta {
	m := &Meta{}
	for _, b := range bases {
		switch t := b.(type) {
		case *Statistical:
			m.Stat = t
		case *Rule:
			m.Rule = t
		default:
			m.Extras = append(m.Extras, b)
		}
	}
	return m
}

// Bases returns the base predictors in arbitration order: the classic
// pair first (statistical, rule — when present), then Extras.
func (m *Meta) Bases() []Base {
	out := make([]Base, 0, 2+len(m.Extras))
	if m.Stat != nil {
		out = append(out, m.Stat)
	}
	if m.Rule != nil {
		out = append(out, m.Rule)
	}
	return append(out, m.Extras...)
}

// BaseNames returns the names of the bases, in arbitration
// order — the /v1/model "predictors" field.
func (m *Meta) BaseNames() []string {
	bases := m.Bases()
	out := make([]string, len(bases))
	for i, b := range bases {
		out[i] = b.Name()
	}
	return out
}

// Name implements Predictor.
func (m *Meta) Name() string { return "meta" }

// Train implements Predictor: every base method learns from the same
// training stream (paper §3.3 learning-set step), whose column of
// Points is built once for all of them.
func (m *Meta) Train(events []preprocess.Event) error {
	return m.TrainSegments([][]preprocess.Point{preprocess.Points(events)})
}

// TrainSegments implements Predictor by forwarding the
// segments to every base method. A meta with no bases has nothing to
// learn and fails. The bases are a work queue, last to first, shared
// by min(GOMAXPROCS, bases) workers, the caller one: the caller starts
// first on the last base, and the cheap statistical one goes to
// whichever worker frees first. They only read the shared segments.
// When several fail, the error is the first in arbitration order, the
// one a base-by-base loop would return.
func (m *Meta) TrainSegments(segments [][]preprocess.Point) error {
	bases := m.Bases()
	if len(bases) == 0 {
		return fmt.Errorf("predictor: meta-learner has no base predictors")
	}
	errs := make([]error, len(bases))
	var taken atomic.Int64
	work := func() {
		for i := len(bases) - int(taken.Add(1)); i >= 0; i = len(bases) - int(taken.Add(1)) {
			errs[i] = bases[i].TrainSegments(segments)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(bases)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Predict implements Predictor: it replays the stream through a
// Stepper and collects the alarms it raises.
func (m *Meta) Predict(events []preprocess.Event, window time.Duration) []Warning {
	var out []Warning
	s := m.Stepper(window)
	for i := range events {
		switch w, res := s.Step(&events[i]); res {
		case StepNew:
			out = append(out, w)
		case StepRenewed:
			out[len(out)-1] = w
		}
	}
	return out
}

// StepResult describes what one Stepper.Step did.
type StepResult int

const (
	// StepNone: the event raised no prediction.
	StepNone StepResult = iota
	// StepNew: a new alarm was raised.
	StepNew
	// StepRenewed: the standing alarm was renewed (extended coverage
	// and possibly upgraded confidence); the returned Warning is its
	// updated value and replaces the previous one.
	StepRenewed
)

// Stepper is the incremental form of the meta-learner: feed events in
// time order, get alarm transitions out. The offline evaluation
// (Predict, and through a one-base meta every precursor base's
// Predict) and the online engine (package online) all run on it, so
// the deployed behaviour is exactly the evaluated behaviour.
type Stepper struct {
	m      *Meta
	bases  []Base
	kinds  map[string]Kind // Warning.Source -> evidence kind
	window time.Duration

	deque   []StepObservation // non-fatal events in the last `window`
	current Warning
	active  bool
}

// Stepper returns a fresh incremental predictor over the trained
// meta-learner with the given prediction window.
func (m *Meta) Stepper(window time.Duration) *Stepper {
	bases := m.Bases()
	kinds := make(map[string]Kind, len(bases))
	for _, b := range bases {
		kinds[b.Name()] = b.Kind()
	}
	return &Stepper{m: m, bases: bases, kinds: kinds, window: window}
}

// Standing returns the alarm covering time t, if any.
func (s *Stepper) Standing(t time.Time) (Warning, bool) {
	if s.active && !t.After(s.current.End) {
		return s.current, true
	}
	return Warning{}, false
}

// emit routes a candidate warning through the standing-alarm renewal.
func (s *Stepper) emit(w Warning) (Warning, StepResult) {
	if s.active && !w.Start.After(s.current.End) {
		if w.End.After(s.current.End) {
			s.current.End = w.End
		}
		if w.Confidence > s.current.Confidence {
			s.current.Confidence = w.Confidence
			s.current.Detail = w.Detail
		}
		return s.current, StepRenewed
	}
	s.current = w
	s.active = true
	return s.current, StepNew
}

// Step feeds one unique event (in time order) into the meta-learner.
// Every base observes the event; the most specific candidate wins,
// confidence breaking ties (bases order breaking the rest). A
// point-of-failure candidate is additionally policy-gated against a
// standing precursor alarm (paper §3.3's coverage-based arbitration,
// generalized to N bases); precursor candidates always renew.
func (s *Stepper) Step(e *preprocess.Event) (Warning, StepResult) {
	cutoff := e.Time.Add(-s.window)
	k := 0
	for k < len(s.deque) && s.deque[k].At.Before(cutoff) {
		k++
	}
	s.deque = s.deque[k:]
	if !e.Sub.IsFatal() {
		s.deque = append(s.deque, StepObservation{At: e.Time, Sub: e.Sub.ID})
	}

	var best Candidate
	var bestBase Base
	for _, b := range s.bases {
		c, ok := b.Observe(e, s.deque, s.window)
		if !ok {
			continue
		}
		if bestBase == nil || c.Specificity > best.Specificity ||
			(c.Specificity == best.Specificity && c.Warning.Confidence > best.Warning.Confidence) {
			best, bestBase = c, b
		}
	}
	if bestBase == nil {
		return Warning{}, StepNone
	}

	if bestBase.Kind() == KindPointOfFailure {
		// Point-of-failure candidate (statistical), policy-gated
		// against a standing precursor alarm.
		alarm, active := s.Standing(e.Time)
		precursorStanding := active && s.kinds[alarm.Source] == KindPrecursor
		admit := true
		switch s.m.Policy {
		case PolicyCoverage:
			// Paper case (3): both kinds of evidence in the window ->
			// higher confidence wins. Cases (1)/(2) follow naturally:
			// with no standing precursor prediction the candidate is
			// the only prediction and is admitted.
			if precursorStanding && alarm.Confidence >= best.Warning.Confidence {
				admit = false
			}
		case PolicyStrictCoverage:
			if len(s.deque) > 0 {
				admit = false
			}
		case PolicyRulePriority:
			if precursorStanding {
				admit = false
			}
		case PolicyUnion:
			// always admit
		}
		if !admit {
			return Warning{}, StepNone
		}
	}
	return s.emit(best.Warning)
}
