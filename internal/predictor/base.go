package predictor

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/canon"
	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
	"bglpred/internal/stats"
)

// Kind classifies a base predictor's evidence for the meta-learner's
// coverage-based arbitration (paper §3.3, generalized): a precursor
// method predicts from non-fatal evidence observed in the window,
// while a point-of-failure method predicts from the fatal arrival
// itself. The policy gates point-of-failure candidates against a
// standing precursor alarm; precursor candidates always renew.
type Kind int

const (
	// KindPointOfFailure predicts at the fatal event (the statistical
	// method: "this failure will be followed by another"). It is the
	// zero value so that a standing alarm whose Source the meta no
	// longer holds — e.g. after a hot-swap to a model without that
	// base — never suppresses anything.
	KindPointOfFailure Kind = iota
	// KindPrecursor predicts from non-fatal precursor evidence (the
	// rule method, the event-correlation-graph method).
	KindPrecursor
)

// Candidate is one base predictor's proposed warning for the current
// event, with the specificity the meta-learner arbitrates on.
type Candidate struct {
	// Warning is the proposed prediction.
	Warning Warning
	// Specificity counts the observed events backing the prediction: a
	// rule match reports its body length, the statistical trigger
	// reports 1, the correlation graph reports its matched precursor
	// count. The most specific covering predictor wins; confidence
	// breaks ties (DESIGN.md §11).
	Specificity int
}

// Base is a base predictor the meta-learner can arbitrate over.
// Beyond offline training and Predict it supports the Stepper's
// incremental protocol (Observe) and the model artifact's
// per-predictor sections (State/SetState).
//
// Observe must be read-only on the receiver: one trained Base is
// shared by every shard's Stepper concurrently.
type Base interface {
	Predictor
	// Kind classifies the evidence the predictor fires on.
	Kind() Kind
	// Observe considers one unique event in time order. recent holds
	// the non-fatal events inside the observation window, oldest
	// first, including e itself when e is non-fatal; window is the
	// prediction window. It returns the predictor's candidate warning
	// for this event, if any.
	Observe(e *preprocess.Event, recent []StepObservation, window time.Duration) (Candidate, bool)
	// State serializes the trained model for an artifact section, in a
	// versioned canonical encoding private to the implementation
	// (internal/canon): one training, one byte string. It errors when
	// the predictor is untrained.
	State() ([]byte, error)
	// SetState restores a trained model from a State payload.
	SetState(data []byte) error
}

// Kind implements Base: the statistical method predicts at the fatal
// arrival itself.
func (s *Statistical) Kind() Kind { return KindPointOfFailure }

// Observe implements Base: a fatal arrival of a trigger category is a
// candidate. The meta prediction window applies directly, with no
// actionability lead (see triggerWithLead).
func (s *Statistical) Observe(e *preprocess.Event, _ []StepObservation, window time.Duration) (Candidate, bool) {
	w, ok := s.triggerWithLead(e, window, 0)
	if !ok {
		return Candidate{}, false
	}
	return Candidate{Warning: w, Specificity: 1}, true
}

// statStateVersion is the first field of Statistical.State.
const statStateVersion = 1

// State implements Base. The encoding is canonical (internal/canon):
// its version, the configuration and the follow counts' frame, then
// the per-main-category total and followed counts and the trigger
// confidences, each table in category order.
func (s *Statistical) State() ([]byte, error) {
	if s.follow == nil {
		return nil, fmt.Errorf("predictor: statistical predictor is not trained")
	}
	b := canon.AppendUint(nil, statStateVersion)
	b = canon.AppendInt(b, int64(s.MinLead))
	b = canon.AppendInt(b, int64(s.MaxWindow))
	b = canon.AppendFloat(b, s.MinProbability)
	b = canon.AppendInt(b, int64(s.MinCount))
	b = canon.AppendInt(b, int64(s.follow.MinLead))
	b = canon.AppendInt(b, int64(s.follow.Window))
	b = appendCounts(b, s.follow.Total)
	b = appendCounts(b, s.follow.Followed)
	triggers := s.Triggers()
	b = canon.AppendUint(b, uint64(len(triggers)))
	for _, main := range sortedKeys(triggers) {
		b = canon.AppendFloat(canon.AppendInt(b, int64(main)), triggers[main])
	}
	return b, nil
}

// SetState implements Base.
func (s *Statistical) SetState(data []byte) error {
	r := canon.NewReader(data)
	r.Version("statistical state", statStateVersion)
	cfg := Statistical{MinLead: time.Duration(r.Int()), MaxWindow: time.Duration(r.Int()), MinProbability: r.Float(), MinCount: int(r.Int())}
	follow := &stats.FollowStats{MinLead: time.Duration(r.Int()), Window: time.Duration(r.Int())}
	follow.Total = readCounts(r)
	follow.Followed = readCounts(r)
	triggers := make(map[catalog.Main]float64)
	for n := r.Count(9); n > 0 && r.Err() == nil; n-- {
		main := catalog.Main(r.Int())
		triggers[main] = r.Float()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("predictor: decode statistical state: %w", err)
	}
	s.MinLead, s.MaxWindow, s.MinProbability, s.MinCount = cfg.MinLead, cfg.MaxWindow, cfg.MinProbability, cfg.MinCount
	s.SetTrained(follow, triggers)
	return nil
}

// appendCounts writes a count table as its length and (category,
// count) varint pairs in category order.
func appendCounts(b []byte, m map[int]int) []byte {
	b = canon.AppendUint(b, uint64(len(m)))
	for _, main := range sortedKeys(m) {
		b = canon.AppendInt(canon.AppendInt(b, int64(main)), int64(m[main]))
	}
	return b
}

// readCounts reads appendCounts' table.
func readCounts(r *canon.Reader) map[int]int {
	n := r.Count(2)
	m := make(map[int]int, n)
	for ; n > 0 && r.Err() == nil; n-- {
		main := int(r.Int())
		m[main] = int(r.Int())
	}
	return m
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Kind implements Base: rules fire on non-fatal precursor evidence.
func (r *Rule) Kind() Kind { return KindPrecursor }

// Observe implements Base: when the observation window's event set
// matches a rule body, the best matching rule is a candidate whose
// specificity is its body length.
func (r *Rule) Observe(e *preprocess.Event, recent []StepObservation, window time.Duration) (Candidate, bool) {
	if e.Sub.IsFatal() || r.rules == nil || r.rules.Len() == 0 {
		return Candidate{}, false
	}
	items := make([]assoc.Item, len(recent))
	for j, d := range recent {
		items[j] = d.Sub
	}
	rule, ok := r.rules.BestMatch(assoc.NewItemset(items...))
	if !ok {
		return Candidate{}, false
	}
	return Candidate{
		Warning: Warning{
			At:         e.Time,
			Start:      e.Time,
			End:        e.Time.Add(window),
			Confidence: rule.Confidence,
			Source:     SourceRule,
			Detail:     rule.Format(itemName),
		},
		Specificity: len(rule.Body),
	}, true
}

// ruleStateVersion is the first field of Rule.State.
const ruleStateVersion = 1

// State implements Base. The encoding is canonical (internal/canon):
// its version, the rule-generation window, then the mined rules in
// BestMatch order, each its body and heads (sorted items), counts,
// support and confidence.
func (r *Rule) State() ([]byte, error) {
	if r.rules == nil {
		return nil, fmt.Errorf("predictor: rule predictor is not trained")
	}
	b := canon.AppendUint(nil, ruleStateVersion)
	b = canon.AppendInt(b, int64(r.chosenWindow))
	b = canon.AppendUint(b, uint64(len(r.rules.Rules)))
	for i := range r.rules.Rules {
		rl := &r.rules.Rules[i]
		b = appendItemset(b, rl.Body)
		b = appendItemset(b, rl.Heads)
		b = canon.AppendInt(b, int64(rl.BodyCount))
		b = canon.AppendInt(b, int64(rl.JointCount))
		b = canon.AppendFloat(b, rl.Support)
		b = canon.AppendFloat(b, rl.Confidence)
	}
	return b, nil
}

// SetState implements Base.
func (r *Rule) SetState(data []byte) error {
	d := canon.NewReader(data)
	d.Version("rule state", ruleStateVersion)
	window := time.Duration(d.Int())
	n := d.Count(20)
	rules := make([]assoc.Rule, 0, n)
	for ; n > 0 && d.Err() == nil; n-- {
		rules = append(rules, assoc.Rule{
			Body:       readItemset(d),
			Heads:      readItemset(d),
			BodyCount:  int(d.Int()),
			JointCount: int(d.Int()),
			Support:    d.Float(),
			Confidence: d.Float(),
		})
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("predictor: decode rule state: %w", err)
	}
	r.SetTrained(assoc.NewRuleSet(rules), window)
	return nil
}

func appendItemset(b []byte, s assoc.Itemset) []byte {
	b = canon.AppendUint(b, uint64(len(s)))
	for _, it := range s {
		b = canon.AppendInt(b, int64(it))
	}
	return b
}

func readItemset(r *canon.Reader) assoc.Itemset {
	n := r.Count(1)
	s := make(assoc.Itemset, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		s = append(s, assoc.Item(r.Int()))
	}
	return s
}
