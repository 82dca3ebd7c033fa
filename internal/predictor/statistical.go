package predictor

import (
	"fmt"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
	"bglpred/internal/stats"
)

// Statistical is the statistical-based base predictor (paper §3.2.1).
// Training measures, per main category, the probability that a fatal
// event is followed by another fatal event within (MinLead, MaxWindow]
// — the temporal correlation of paper Figure 2. Categories whose
// follow probability clears MinProbability become triggers (on the
// paper's logs these are Network and Iostream). At prediction time
// every fatal event of a trigger category raises a warning covering
// (t + MinLead, t + W].
type Statistical struct {
	// MinLead is the actionability lead: predictions nearer than this
	// are useless for proactive action (paper: 5 minutes). Default 5m.
	MinLead time.Duration
	// MaxWindow is the correlation window learned during training
	// (paper: 1 hour). Default 1h.
	MaxWindow time.Duration
	// MinProbability qualifies a category as a trigger. Default 0.4
	// (on the calibrated logs this selects exactly Network and
	// Iostream, the categories the paper hardcodes).
	MinProbability float64
	// MinCount is the minimum training occurrences for a category to
	// qualify (avoids spurious triggers from tiny samples). Default 20.
	MinCount int
	// ForceTriggers, when non-empty, bypasses trigger learning and
	// pins the trigger set (the paper hardcodes Network and Iostream).
	ForceTriggers []catalog.Main

	follow     *stats.FollowStats
	triggers   map[catalog.Main]bool
	confidence map[catalog.Main]float64
}

// NewStatistical returns a predictor with the paper's defaults.
func NewStatistical() *Statistical { return &Statistical{} }

func (s *Statistical) withDefaults() {
	if s.MinLead == 0 {
		s.MinLead = 5 * time.Minute
	}
	if s.MaxWindow == 0 {
		s.MaxWindow = time.Hour
	}
	if s.MinProbability == 0 {
		s.MinProbability = 0.4
	}
	if s.MinCount == 0 {
		s.MinCount = 20
	}
}

// Name implements Predictor.
func (s *Statistical) Name() string { return SourceStatistical }

// Train implements Predictor: it learns per-category follow
// probabilities over the training stream's fatal events.
func (s *Statistical) Train(events []preprocess.Event) error {
	return s.TrainSegments([][]preprocess.Point{preprocess.Points(events)})
}

// TrainSegments implements Predictor: follow statistics are
// analyzed per segment and merged, so no correlation window spans the
// gap between segments. A fatal at the end of one segment is never
// scored as "followed" by a fatal that opens the next — across a
// cross-validation seam those two events can be days apart in the
// real stream.
func (s *Statistical) TrainSegments(segments [][]preprocess.Point) error {
	s.withDefaults()
	s.follow = &stats.FollowStats{
		MinLead:  s.MinLead,
		Window:   s.MaxWindow,
		Total:    make(map[int]int),
		Followed: make(map[int]int),
	}
	for _, seg := range segments {
		var fatal []stats.TimedEvent
		for i := range seg {
			if sub := seg[i].Subcategory(); sub.IsFatal() {
				fatal = append(fatal, stats.TimedEvent{Time: seg[i].Time(), Category: int(sub.Main)})
			}
		}
		s.follow.Merge(stats.AnalyzeFollow(fatal, s.MinLead, s.MaxWindow))
	}
	s.triggers = make(map[catalog.Main]bool)
	s.confidence = make(map[catalog.Main]float64)

	if len(s.ForceTriggers) > 0 {
		for _, m := range s.ForceTriggers {
			s.triggers[m] = true
			s.confidence[m] = s.follow.Probability(int(m))
			if s.confidence[m] == 0 {
				s.confidence[m] = s.MinProbability
			}
		}
		return nil
	}
	for _, c := range s.follow.Categories() {
		p := s.follow.Probability(c)
		if p >= s.MinProbability && s.follow.Total[c] >= s.MinCount {
			s.triggers[catalog.Main(c)] = true
			s.confidence[catalog.Main(c)] = p
		}
	}
	return nil
}

// Triggers returns the learned trigger categories and their
// confidences (the learned analogue of the paper's "network or I/O
// stream failure" rule).
func (s *Statistical) Triggers() map[catalog.Main]float64 {
	out := make(map[catalog.Main]float64, len(s.confidence))
	for m := range s.triggers {
		out[m] = s.confidence[m]
	}
	return out
}

// FollowStats exposes the learned temporal-correlation statistics.
func (s *Statistical) FollowStats() *stats.FollowStats { return s.follow }

// trigger returns a warning for the event if it is a trigger fatal,
// with the standalone predictor's actionability lead.
func (s *Statistical) trigger(e *preprocess.Event, window time.Duration) (Warning, bool) {
	return s.triggerWithLead(e, window, s.MinLead)
}

// triggerWithLead is trigger with an explicit lead. The meta-learner
// passes lead 0: inside the meta prediction window there is no
// separate actionability floor (paper §3.3 simply "applies the
// statistical based method for failure prediction" over the window).
func (s *Statistical) triggerWithLead(e *preprocess.Event, window time.Duration, lead time.Duration) (Warning, bool) {
	if !e.Sub.IsFatal() || !s.triggers[e.Sub.Main] {
		return Warning{}, false
	}
	if lead >= window {
		// Degenerate configuration: keep a sliver of coverage.
		lead = window / 2
	}
	return Warning{
		At:         e.Time,
		Start:      e.Time.Add(lead),
		End:        e.Time.Add(window),
		Confidence: s.confidence[e.Sub.Main],
		Source:     SourceStatistical,
		Detail:     fmt.Sprintf("%s failure followed by another failure p=%.3f", e.Sub.Main, s.confidence[e.Sub.Main]),
	}, true
}

// Predict implements Predictor.
func (s *Statistical) Predict(events []preprocess.Event, window time.Duration) []Warning {
	if s.follow == nil {
		return nil
	}
	var out []Warning
	for i := range events {
		if w, ok := s.trigger(&events[i], window); ok {
			out = append(out, w)
		}
	}
	return out
}
