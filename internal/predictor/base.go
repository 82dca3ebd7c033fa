package predictor

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"bglpred/internal/assoc"
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
	// zero value so that a standing alarm whose Source is no longer
	// registered — e.g. after a hot-swap to a model without that base —
	// never suppresses anything.
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

// Base is a registrable base predictor the meta-learner can arbitrate
// over. Beyond offline Train/Predict it supports the Stepper's
// incremental protocol (Observe) and the model artifact's
// per-predictor sections (State/SetState).
//
// Observe must be read-only on the receiver: one trained Base is
// shared by every shard's Stepper concurrently.
type Base interface {
	Predictor
	SegmentedTrainer
	// Kind classifies the evidence the predictor fires on.
	Kind() Kind
	// Observe considers one unique event in time order. recent holds
	// the non-fatal events inside the observation window, oldest
	// first, including e itself when e is non-fatal; window is the
	// prediction window. It returns the predictor's candidate warning
	// for this event, if any.
	Observe(e *preprocess.Event, recent []StepObservation, window time.Duration) (Candidate, bool)
	// State serializes the trained model (a gob payload private to the
	// implementation) for a version-2 artifact section. It errors when
	// the predictor is untrained.
	State() ([]byte, error)
	// SetState restores a trained model from a State payload.
	SetState(data []byte) error
}

// BaseFactory builds a fresh, untrained Base; the registry holds one
// per registered predictor name.
type BaseFactory func() Base

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

// StatState is the gob payload of Statistical.State, and the
// version-1 model artifact's statistical table: the configuration plus
// the learned temporal-correlation tables.
type StatState struct {
	MinLead        time.Duration
	MaxWindow      time.Duration
	MinProbability float64
	MinCount       int
	// FollowMinLead and FollowWindow frame the follow counts below
	// (they mirror MinLead and MaxWindow at training time).
	FollowMinLead time.Duration
	FollowWindow  time.Duration
	// TotalTable and FollowedTable are the per-main-category follow
	// counts of stats.FollowStats, and TriggerTable the trigger
	// categories with their learned confidence, each packed in category
	// order (packCounts, packConfs), so that a section's bytes are a
	// function of the training alone. They are []byte because gob has
	// that type built in: a new composite type would take the next gob
	// type ids in this process and renumber every type encoded after
	// it, checkpoints included.
	TotalTable    []byte
	FollowedTable []byte
	TriggerTable  []byte
	// Total, Followed and Triggers are the same tables as maps, which
	// gob writes in map iteration order. They are decoded from older
	// payloads and the version-1 artifact only; State never fills them.
	Total    map[int]int
	Followed map[int]int
	Triggers map[int]float64
}

// State implements Base.
func (s *Statistical) State() ([]byte, error) {
	if s.follow == nil {
		return nil, fmt.Errorf("predictor: statistical predictor is not trained")
	}
	st := StatState{
		MinLead:        s.MinLead,
		MaxWindow:      s.MaxWindow,
		MinProbability: s.MinProbability,
		MinCount:       s.MinCount,
		FollowMinLead:  s.follow.MinLead,
		FollowWindow:   s.follow.Window,
		TotalTable:     packCounts(s.follow.Total),
		FollowedTable:  packCounts(s.follow.Followed),
		TriggerTable:   packConfs(s.Triggers()),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("predictor: encode statistical state: %w", err)
	}
	return buf.Bytes(), nil
}

// SetState implements Base. It reads the tables in either form.
func (s *Statistical) SetState(data []byte) error {
	var st StatState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("predictor: decode statistical state: %w", err)
	}
	follow := &stats.FollowStats{
		MinLead:  st.FollowMinLead,
		Window:   st.FollowWindow,
		Total:    st.Total,
		Followed: st.Followed,
	}
	if follow.Total == nil {
		follow.Total = make(map[int]int)
	}
	if follow.Followed == nil {
		follow.Followed = make(map[int]int)
	}
	triggers := make(map[catalog.Main]float64, len(st.Triggers))
	for main, conf := range st.Triggers {
		triggers[catalog.Main(main)] = conf
	}
	if err := unpackCounts(st.TotalTable, follow.Total); err != nil {
		return err
	}
	if err := unpackCounts(st.FollowedTable, follow.Followed); err != nil {
		return err
	}
	if err := unpackConfs(st.TriggerTable, triggers); err != nil {
		return err
	}
	s.MinLead = st.MinLead
	s.MaxWindow = st.MaxWindow
	s.MinProbability = st.MinProbability
	s.MinCount = st.MinCount
	s.SetTrained(follow, triggers)
	return nil
}

// packCounts writes a count table as varint (category, count) pairs in
// category order.
func packCounts(m map[int]int) []byte {
	var b []byte
	for _, main := range sortedKeys(m) {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(main)), int64(m[main]))
	}
	return b
}

// packConfs writes trigger confidences as (varint category, float64
// bits) pairs in category order.
func packConfs(m map[catalog.Main]float64) []byte {
	var b []byte
	for _, main := range sortedKeys(m) {
		b = binary.BigEndian.AppendUint64(binary.AppendVarint(b, int64(main)), math.Float64bits(m[main]))
	}
	return b
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

var errStatTable = errors.New("predictor: decode statistical state: malformed table")

// unpackCounts adds packCounts' pairs to m.
func unpackCounts(b []byte, m map[int]int) error {
	for len(b) > 0 {
		main, n := binary.Varint(b)
		if n <= 0 {
			return errStatTable
		}
		count, k := binary.Varint(b[n:])
		if k <= 0 {
			return errStatTable
		}
		m[int(main)] = int(count)
		b = b[n+k:]
	}
	return nil
}

// unpackConfs adds packConfs' pairs to m.
func unpackConfs(b []byte, m map[catalog.Main]float64) error {
	for len(b) > 0 {
		main, n := binary.Varint(b)
		if n <= 0 || len(b) < n+8 {
			return errStatTable
		}
		m[catalog.Main(main)] = math.Float64frombits(binary.BigEndian.Uint64(b[n:]))
		b = b[n+8:]
	}
	return nil
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

// RuleState is the gob payload of Rule.State, and the version-1 model
// artifact's rule table: the mined rule set, in BestMatch order, and
// its rule-generation window (the restore half of Rules and
// ChosenWindow).
type RuleState struct {
	Window time.Duration
	// Rules carry supports, confidences and counts; assoc.Rule is plain
	// exported data.
	Rules []assoc.Rule
}

// State implements Base.
func (r *Rule) State() ([]byte, error) {
	if r.rules == nil {
		return nil, fmt.Errorf("predictor: rule predictor is not trained")
	}
	st := RuleState{Window: r.chosenWindow, Rules: make([]assoc.Rule, len(r.rules.Rules))}
	for i, rl := range r.rules.Rules {
		rl.Body = rl.Body.Clone()
		rl.Heads = rl.Heads.Clone()
		st.Rules[i] = rl
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("predictor: encode rule state: %w", err)
	}
	return buf.Bytes(), nil
}

// SetState implements Base.
func (r *Rule) SetState(data []byte) error {
	var st RuleState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("predictor: decode rule state: %w", err)
	}
	r.SetTrained(assoc.NewRuleSet(st.Rules), st.Window)
	return nil
}
