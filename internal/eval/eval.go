// Package eval measures prediction accuracy the way the paper does:
// precision and recall under n-fold cross-validation (paper §3.2),
// swept over prediction windows from 5 minutes to 1 hour (Figures 4
// and 5).
//
// Matching semantics: a warning is a true positive when at least one
// fatal event falls in its (Start, End] interval, otherwise a false
// positive; a fatal event is predicted (counts toward recall) when at
// least one warning interval contains it. Precision = TP / warnings,
// recall = predicted fatals / fatals.
package eval

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
)

// Outcome aggregates one evaluation run.
type Outcome struct {
	// Warnings is the number of predictions issued.
	Warnings int
	// TruePositive counts warnings whose interval contains a fatal.
	TruePositive int
	// FalsePositive counts warnings whose interval contains none.
	FalsePositive int
	// TotalFatal is the number of fatal events in the test stream.
	TotalFatal int
	// PredictedFatal counts fatal events covered by some warning.
	PredictedFatal int
}

// Precision returns TruePositive / Warnings (0 when no warnings).
func (o Outcome) Precision() float64 {
	if o.Warnings == 0 {
		return 0
	}
	return float64(o.TruePositive) / float64(o.Warnings)
}

// Recall returns PredictedFatal / TotalFatal (0 when no fatals).
func (o Outcome) Recall() float64 {
	if o.TotalFatal == 0 {
		return 0
	}
	return float64(o.PredictedFatal) / float64(o.TotalFatal)
}

// F1 returns the harmonic mean of precision and recall.
func (o Outcome) F1() float64 {
	p, r := o.Precision(), o.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Add accumulates counts from another outcome.
func (o *Outcome) Add(other Outcome) {
	o.Warnings += other.Warnings
	o.TruePositive += other.TruePositive
	o.FalsePositive += other.FalsePositive
	o.TotalFatal += other.TotalFatal
	o.PredictedFatal += other.PredictedFatal
}

// String renders the outcome compactly.
func (o Outcome) String() string {
	return fmt.Sprintf("precision=%.4f recall=%.4f (tp=%d fp=%d fatal=%d/%d)",
		o.Precision(), o.Recall(), o.TruePositive, o.FalsePositive,
		o.PredictedFatal, o.TotalFatal)
}

// Match scores warnings against the fatal events of a test stream.
func Match(warnings []predictor.Warning, events []preprocess.Event) Outcome {
	var fatals []time.Time
	for i := range events {
		if events[i].Sub.IsFatal() {
			fatals = append(fatals, events[i].Time)
		}
	}
	return MatchTimes(warnings, fatals)
}

// MatchTimes scores warnings against sorted fatal timestamps.
func MatchTimes(warnings []predictor.Warning, fatals []time.Time) Outcome {
	o := Outcome{Warnings: len(warnings), TotalFatal: len(fatals)}
	covered := make([]bool, len(fatals))
	for i := range warnings {
		w := &warnings[i]
		idx := sort.Search(len(fatals), func(k int) bool { return fatals[k].After(w.Start) })
		hit := false
		for k := idx; k < len(fatals) && !fatals[k].After(w.End); k++ {
			covered[k] = true
			hit = true
		}
		if hit {
			o.TruePositive++
		} else {
			o.FalsePositive++
		}
	}
	for _, c := range covered {
		if c {
			o.PredictedFatal++
		}
	}
	return o
}

// CVResult is an n-fold cross-validation result.
type CVResult struct {
	// Folds holds each fold's outcome in fold order.
	Folds []Outcome
	// MeanPrecision and MeanRecall average the per-fold metrics, the
	// paper's reporting convention; folds that issued no warnings
	// contribute zero precision.
	MeanPrecision float64
	MeanRecall    float64
	// Pooled aggregates raw counts across folds (micro-average).
	Pooled Outcome
}

// StddevPrecision returns the fold-to-fold standard deviation of
// precision — the error bar on MeanPrecision.
func (r CVResult) StddevPrecision() float64 {
	return stddevOf(r.Folds, Outcome.Precision, r.MeanPrecision)
}

// StddevRecall returns the fold-to-fold standard deviation of recall.
func (r CVResult) StddevRecall() float64 {
	return stddevOf(r.Folds, Outcome.Recall, r.MeanRecall)
}

func stddevOf(folds []Outcome, metric func(Outcome) float64, mean float64) float64 {
	if len(folds) == 0 {
		return 0
	}
	var ss float64
	for _, o := range folds {
		d := metric(o) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(folds)))
}

// CrossValidate runs the paper's n-fold protocol: the unique-event
// stream is cut into n contiguous, equally sized folds; each fold in
// turn is the test set while the remaining folds form the training
// set. Folds run concurrently, each on a fresh predictor from the
// factory.
//
// The two remaining pieces (before and after the test fold) train the
// predictor as separate segments (Predictor.TrainSegments), so no
// training window spans the excised fold.
func CrossValidate(events []preprocess.Event, folds int, factory predictor.Factory, window time.Duration) (CVResult, error) {
	if folds < 2 {
		return CVResult{}, fmt.Errorf("eval: need at least 2 folds, got %d", folds)
	}
	if len(events) < folds {
		return CVResult{}, fmt.Errorf("eval: %d events cannot fill %d folds", len(events), folds)
	}
	bounds := foldBounds(len(events), folds)
	points := preprocess.Points(events)
	outcomes := make([]Outcome, folds)
	errs := make([]error, folds)
	var wg sync.WaitGroup
	for f := 0; f < folds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			lo, hi := bounds[f], bounds[f+1]
			test := events[lo:hi]
			p := factory()
			if err := trainExcising(p, points, lo, hi); err != nil {
				errs[f] = fmt.Errorf("fold %d: %w", f, err)
				return
			}
			outcomes[f] = Match(p.Predict(test, window), test)
		}(f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return CVResult{}, err
		}
	}
	res := CVResult{Folds: outcomes}
	for _, o := range outcomes {
		res.MeanPrecision += o.Precision()
		res.MeanRecall += o.Recall()
		res.Pooled.Add(o)
	}
	res.MeanPrecision /= float64(folds)
	res.MeanRecall /= float64(folds)
	return res, nil
}

// trainExcising trains p on the column points with [lo, hi) removed,
// the pieces on either side of the gap as separate segments.
func trainExcising(p predictor.Predictor, points []preprocess.Point, lo, hi int) error {
	var segments [][]preprocess.Point
	if lo > 0 {
		segments = append(segments, points[:lo])
	}
	if hi < len(points) {
		segments = append(segments, points[hi:])
	}
	return p.TrainSegments(segments)
}

// foldBounds cuts n items into `folds` contiguous slices; bounds has
// folds+1 entries.
func foldBounds(n, folds int) []int {
	bounds := make([]int, folds+1)
	for f := 0; f <= folds; f++ {
		bounds[f] = f * n / folds
	}
	return bounds
}

// SweepPoint is one (window, result) pair of a prediction-window sweep.
type SweepPoint struct {
	Window time.Duration
	Result CVResult
}

// WindowSweep cross-validates the factory's predictor at each
// prediction window — the x-axis of paper Figures 4 and 5. Windows
// run concurrently (each already fans out per fold); results come
// back in window order, and the first failing window's error wins.
func WindowSweep(events []preprocess.Event, folds int, factory predictor.Factory, windows []time.Duration) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for i, w := range windows {
		wg.Add(1)
		go func(i int, w time.Duration) {
			defer wg.Done()
			res, err := CrossValidate(events, folds, factory, w)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = SweepPoint{Window: w, Result: res}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PaperWindows returns the paper's prediction windows: 5 to 60
// minutes.
func PaperWindows() []time.Duration {
	var out []time.Duration
	for m := 5; m <= 60; m += 5 {
		out = append(out, time.Duration(m)*time.Minute)
	}
	return out
}
