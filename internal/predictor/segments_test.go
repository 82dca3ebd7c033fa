package predictor

import (
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
)

// spyMiner records the transactions MineRules hands it, which are
// exactly the event-sets the rule-generation windows formed.
type spyMiner struct {
	tx []assoc.Transaction
}

func (s *spyMiner) Mine(tx []assoc.Transaction, minCount, maxLen int) []assoc.FrequentItemset {
	s.tx = append(s.tx, tx...)
	return nil
}

// seamStream builds two adjacent segments: A ends with a distinctive
// non-fatal precursor, B opens with a fatal 2 minutes later — inside
// any reasonable rule-generation window if the seam is ignored.
func seamStream() (a, b []preprocess.Event) {
	a = stream(
		0*time.Minute, "scrubCycleInfo",
		60*time.Minute, "coredumpCreated", // marker precursor, ends segment A
	)
	b = stream(
		62*time.Minute, "torusFailure", // fatal, opens segment B
		90*time.Minute, "scrubCycleInfo",
		95*time.Minute, "kernelPanicFailure",
	)
	return a, b
}

// TestRuleTrainSegmentsNoCrossSeamWindows is the fold-boundary
// leakage regression test for the rule predictor: a rule-generation
// window must not reach across the gap between training segments.
// Before the fix, CrossValidate concatenated events[:lo] and
// events[hi:], and the fatal opening the post-fold piece swept the
// pre-fold piece's trailing non-fatals into its event-set.
func TestRuleTrainSegmentsNoCrossSeamWindows(t *testing.T) {
	a, b := seamStream()
	marker := catalog.MustByName("coredumpCreated").ID

	hasMarkerWithFatal := func(tx []assoc.Transaction) bool {
		torus := catalog.MustByName("torusFailure").ID
		for _, set := range tx {
			if set.Contains(marker) && set.Contains(torus) {
				return true
			}
		}
		return false
	}

	// The concatenated stream demonstrates the leakage shape: the
	// torusFailure window reaches back into segment A.
	concat := append(append([]preprocess.Event(nil), a...), b...)
	leaky := &spyMiner{}
	r := NewRule()
	r.Config.RuleGenWindow = 15 * time.Minute
	r.Config.Miner = leaky
	if err := r.Train(concat); err != nil {
		t.Fatal(err)
	}
	if !hasMarkerWithFatal(leaky.tx) {
		t.Fatal("sanity: concatenated stream should pair the marker with the cross-seam fatal")
	}

	// Segmented training must not form that pair.
	spy := &spyMiner{}
	r = NewRule()
	r.Config.RuleGenWindow = 15 * time.Minute
	r.Config.Miner = spy
	if err := r.TrainSegments([][]preprocess.Point{preprocess.Points(a), preprocess.Points(b)}); err != nil {
		t.Fatal(err)
	}
	if len(spy.tx) == 0 {
		t.Fatal("segmented training mined no transactions")
	}
	if hasMarkerWithFatal(spy.tx) {
		t.Fatal("rule-generation window leaked across the segment seam")
	}
}

// TestStatisticalTrainSegmentsNoCrossSeamFollow pins the same
// property for the statistical predictor: a fatal closing one segment
// is not "followed" by the fatal opening the next.
func TestStatisticalTrainSegmentsNoCrossSeamFollow(t *testing.T) {
	a := stream(0*time.Minute, "torusFailure")
	b := stream(10*time.Minute, "torusFailure") // within (5m, 1h] of a's fatal
	net := int(catalog.MustByName("torusFailure").Main)

	s := NewStatistical()
	if err := s.Train(append(append([]preprocess.Event(nil), a...), b...)); err != nil {
		t.Fatal(err)
	}
	if got := s.FollowStats().Followed[net]; got != 1 {
		t.Fatalf("sanity: concatenated stream should count 1 follow, got %d", got)
	}

	s = NewStatistical()
	if err := s.TrainSegments([][]preprocess.Point{preprocess.Points(a), preprocess.Points(b)}); err != nil {
		t.Fatal(err)
	}
	if got := s.FollowStats().Followed[net]; got != 0 {
		t.Fatalf("follow window leaked across the segment seam: %d follows", got)
	}
	if got := s.FollowStats().Total[net]; got != 2 {
		t.Fatalf("merged totals = %d, want 2", got)
	}
}

// TestMetaTrainSegmentsForwards checks the meta-learner hands the
// segment structure to both base methods.
func TestMetaTrainSegmentsForwards(t *testing.T) {
	a, b := seamStream()
	spy := &spyMiner{}
	m := NewMeta()
	m.Rule.Config.RuleGenWindow = 15 * time.Minute
	m.Rule.Config.Miner = spy
	if err := m.TrainSegments([][]preprocess.Point{preprocess.Points(a), preprocess.Points(b)}); err != nil {
		t.Fatal(err)
	}
	if m.Stat.FollowStats() == nil {
		t.Fatal("statistical base not trained")
	}
	marker := catalog.MustByName("coredumpCreated").ID
	torus := catalog.MustByName("torusFailure").ID
	for _, set := range spy.tx {
		if set.Contains(marker) && set.Contains(torus) {
			t.Fatal("meta training leaked a window across the segment seam")
		}
	}
}

// TestSplitSegmentsContiguity exercises the window-selection holdout
// split: the cut must partition without reordering, duplicating, or
// dropping events.
func TestSplitSegmentsContiguity(t *testing.T) {
	a, b := seamStream()
	segments := [][]preprocess.Point{preprocess.Points(a), preprocess.Points(b)}
	total := len(a) + len(b)
	for cut := 0; cut <= total; cut++ {
		train, hold := splitSegments(segments, cut)
		n := 0
		for _, s := range train {
			n += len(s)
		}
		if n != cut {
			t.Fatalf("cut %d: train holds %d events", cut, n)
		}
		for _, s := range hold {
			n += len(s)
		}
		if n != total {
			t.Fatalf("cut %d: split covers %d of %d events", cut, n, total)
		}
	}
}
