// Package predictor implements Phase 2 and Phase 3 of the three-phase
// framework: the statistical base predictor (paper §3.2.1), the
// association-rule base predictor (§3.2.2), and the coverage-based
// meta-learner that integrates them (§3.3).
//
// # Warning semantics
//
// A predictor consumes the time-ordered unique-event stream produced
// by Phase 1 and emits warnings. A warning issued at time t with
// prediction window W asserts "a fatal event will occur in (Start,
// End]" where Start >= t and End = t + W. The evaluation package
// scores a warning as a true positive when at least one fatal event
// falls inside its interval, and a fatal event as predicted when at
// least one warning interval contains it.
package predictor

import (
	"time"

	"bglpred/internal/preprocess"
)

// Warning is one prediction: a claim that a fatal event will occur
// within (Start, End].
type Warning struct {
	// At is the event timestamp that triggered the prediction.
	At time.Time
	// Start and End delimit the covered interval (Start exclusive,
	// End inclusive). Start is At for rule warnings, At plus the
	// actionability lead for statistical warnings.
	Start time.Time
	End   time.Time
	// Confidence is the predictor's confidence in (0, 1].
	Confidence float64
	// Source names the base method by its registry name
	// ("statistical", "rule", or another registered base such as
	// "ecg").
	Source string
	// Detail describes the trigger (rule text or trigger category).
	Detail string
}

// Covers reports whether the warning's interval contains t.
func (w *Warning) Covers(t time.Time) bool {
	return t.After(w.Start) && !t.After(w.End)
}

// Predictor is a trainable failure predictor evaluated offline, in
// the paper's n-fold cross-validation style.
type Predictor interface {
	// Name identifies the method in reports.
	Name() string
	// Train fits the predictor on a time-ordered unique-event stream.
	Train(events []preprocess.Event) error
	// Predict replays a time-ordered test stream and returns the
	// warnings the method would have raised with the given prediction
	// window, in issue order.
	Predict(events []preprocess.Event, window time.Duration) []Warning
}

// SegmentedTrainer is implemented by predictors that can train on a
// discontiguous stream: each segment is a time-ordered, internally
// contiguous slice of the unique-event stream's Points (time and
// subcategory are all training reads), and no training
// window (rule-generation window, follow-correlation window) may
// span the gap between two segments. Cross-validation excises the
// test fold from the middle of the stream and trains on the two
// remaining segments; concatenating them instead would fabricate
// event-sets that never co-occurred (fold-boundary leakage).
type SegmentedTrainer interface {
	// TrainSegments fits the predictor on the segments, which must be
	// in time order. TrainSegments with the single segment
	// preprocess.Points(events) is equivalent to Train(events). It must
	// only read the segments: a meta-learner trains its bases side by
	// side over the same ones.
	TrainSegments(segments [][]preprocess.Point) error
}

// Factory builds a fresh predictor; cross-validation uses one per fold.
type Factory func() Predictor

// SourceStatistical and SourceRule are the Warning.Source values of
// the two base methods.
const (
	SourceStatistical = "statistical"
	SourceRule        = "rule"
)
