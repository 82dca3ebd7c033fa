package predictor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
)

// RuleConfig parameterizes the rule-based predictor.
type RuleConfig struct {
	// RuleGenWindow is the window preceding each fatal event from which
	// event-sets are built (paper §3.2.2 step 1). Zero selects the
	// window automatically from Candidates on a held-out slice of the
	// training data (step 5) — the paper's sweep picked 15 minutes for
	// ANL and 25 minutes for SDSC.
	RuleGenWindow time.Duration
	// Candidates are the windows the automatic selection sweeps;
	// default 5, 10, ..., 60 minutes.
	Candidates []time.Duration
	// MinSupport is the fractional minimum support. The paper states
	// 0.04, but with one event-set per fatal event that threshold would
	// exclude the very rule families Figure 3 prints (linkcardFailure
	// occurs ~100 times among ~2800 event-sets, i.e. support ~0.035);
	// we default to 0.01 and record the discrepancy in EXPERIMENTS.md.
	MinSupport float64
	// MinConfidence is the minimum rule confidence (paper: 0.2).
	MinConfidence float64
	// MaxBodyLen bounds precursor-set size (default 4, the longest
	// body in paper Figure 3).
	MaxBodyLen int
	// MaxBodyItemShare, MinLift, MinCountFloor and MinZ forward to
	// assoc.Config; zero selects that package's defaults (0.15, 2.2,
	// 5 and 2.5).
	MaxBodyItemShare float64
	MinLift          float64
	MinCountFloor    int
	MinZ             float64
	// Miner selects Apriori or FPGrowth; default FPGrowth.
	Miner assoc.Miner
	// KeepDominated retains rules whose body is a superset of an
	// equally confident rule's body. Pruning them never changes a
	// prediction (see assoc.RuleSet.Prune); the default prunes.
	KeepDominated bool
}

func (c RuleConfig) withDefaults() RuleConfig {
	if len(c.Candidates) == 0 {
		for m := 5; m <= 60; m += 5 {
			c.Candidates = append(c.Candidates, time.Duration(m)*time.Minute)
		}
	}
	if c.MinSupport == 0 {
		c.MinSupport = 0.01
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.2
	}
	if c.MaxBodyLen == 0 {
		c.MaxBodyLen = 4
	}
	if c.Miner == nil {
		c.Miner = &assoc.FPGrowth{}
	}
	return c
}

// Rule is the rule-based base predictor (paper §3.2.2): it mines
// association rules from event-sets of non-fatal precursors preceding
// fatal events, then raises a warning whenever a rule body is observed
// in the prediction window.
type Rule struct {
	Config RuleConfig

	rules        *assoc.RuleSet
	chosenWindow time.Duration
}

// NewRule returns a rule predictor with the paper's defaults and
// automatic rule-generation-window selection.
func NewRule() *Rule { return &Rule{} }

// Name implements Predictor.
func (r *Rule) Name() string { return SourceRule }

// Rules exposes the mined rule set (nil before Train).
func (r *Rule) Rules() *assoc.RuleSet { return r.rules }

// ChosenWindow reports the rule-generation window used.
func (r *Rule) ChosenWindow() time.Duration { return r.chosenWindow }

// BuildTransactions constructs one event-set per fatal event: the
// fatal's subcategory plus every distinct non-fatal subcategory
// observed within the window before it (paper §3.2.2 step 1). events
// is time-ordered, as Phase 1 emits it.
func BuildTransactions(events []preprocess.Event, window time.Duration) []assoc.Transaction {
	return transactions(preprocess.Points(events), window)
}

// transactions is BuildTransactions over the points' column. One pass
// slides the window: live counts the non-fatal points of each
// subcategory in [start, i), so an event-set is read off the counts in
// ascending ID order, sorted as it is built. That costs O(points +
// fatals × catalog.NumSubcategories), where a rescan of the window and
// a sort per fatal cost O(fatals × window).
func transactions(points []preprocess.Point, window time.Duration) []assoc.Transaction {
	var tx []assoc.Transaction
	var live [catalog.NumSubcategories]int32
	var arena []assoc.Item // backs the event-sets, a chunk at a time
	start := 0
	for i := range points {
		id := points[i].Sub
		if !isFatalItem(int(id)) {
			live[id]++
			continue
		}
		cutoff := points[i].At - int64(window)
		for ; points[start].At < cutoff; start++ {
			if old := points[start].Sub; !isFatalItem(int(old)) {
				live[old]--
			}
		}
		if cap(arena)-len(arena) < len(live) {
			arena = make([]assoc.Item, 0, 16*len(live))
		}
		items := arena[len(arena):]
		for it, n := range live {
			if n > 0 || it == int(id) {
				items = append(items, it)
			}
		}
		arena = arena[:len(arena)+len(items)]
		tx = append(tx, items[:len(items):len(items)])
	}
	return tx
}

// isFatalItem classifies items (subcategory IDs) as rule heads.
func isFatalItem(it assoc.Item) bool {
	s, ok := catalog.ByID(it)
	return ok && s.IsFatal()
}

// itemName resolves an item to its subcategory name for Figure 3-style
// rule rendering.
func itemName(it assoc.Item) string {
	if s, ok := catalog.ByID(it); ok {
		return s.Name
	}
	return fmt.Sprintf("item%d", it)
}

// Train implements Predictor: step 5's window selection (when
// configured) followed by steps 1-4 on the full training stream.
func (r *Rule) Train(events []preprocess.Event) error {
	return r.TrainSegments([][]preprocess.Point{preprocess.Points(events)})
}

// TrainSegments implements SegmentedTrainer: event-sets are built per
// segment, so no rule-generation window spans the gap between two
// segments (cross-validation excises the test fold from the middle of
// the stream; building event-sets over the concatenation would mine
// precursor sets that never co-occurred).
func (r *Rule) TrainSegments(segments [][]preprocess.Point) error {
	r.Config = r.Config.withDefaults()
	window := r.Config.RuleGenWindow
	if window == 0 {
		window = r.selectWindow(segments)
	}
	r.chosenWindow = window
	r.rules = assoc.NewRuleSet(r.mine(segments, window))
	if !r.Config.KeepDominated {
		r.rules.Prune()
	}
	return nil
}

func (r *Rule) mine(segments [][]preprocess.Point, window time.Duration) []assoc.Rule {
	var tx []assoc.Transaction
	for _, seg := range segments {
		tx = append(tx, transactions(seg, window)...)
	}
	return assoc.MineRules(tx, isFatalItem, assoc.Config{
		MinSupport:       r.Config.MinSupport,
		MinConfidence:    r.Config.MinConfidence,
		MaxBodyLen:       r.Config.MaxBodyLen,
		MaxBodyItemShare: r.Config.MaxBodyItemShare,
		MinLift:          r.Config.MinLift,
		MinCountFloor:    r.Config.MinCountFloor,
		MinZ:             r.Config.MinZ,
		Miner:            r.Config.Miner,
	})
}

// selectWindow implements step 5: mine rules per candidate window on
// the first three quarters of the training stream, score predictions
// on the held-out quarter, and keep the best window by F1 (the paper's
// "best precision with highest recall" criterion, made precise). The
// hold-out replays as events carrying only a time and a subcategory,
// all the rule's Stepper reads. Candidates are probed concurrently —
// each probe mines and scores an independent rule set — and ties
// resolve to the earliest candidate, matching the sequential sweep
// exactly.
func (r *Rule) selectWindow(segments [][]preprocess.Point) time.Duration {
	best := r.Config.Candidates[0]
	total := 0
	for _, seg := range segments {
		total += len(seg)
	}
	if total < 20 {
		return best
	}
	train, hold := splitSegments(segments, total*3/4)
	all := make([]preprocess.Event, total-total*3/4)
	replay, rest := make([][]preprocess.Event, len(hold)), all
	for i, seg := range hold {
		replay[i], rest = rest[:len(seg)], rest[len(seg):]
		for j := range seg {
			replay[i][j].Time, replay[i][j].Sub = seg[j].Time(), seg[j].Subcategory()
		}
	}
	const predWindow = 30 * time.Minute
	scores := make([]float64, len(r.Config.Candidates))
	var wg sync.WaitGroup
	for ci, cand := range r.Config.Candidates {
		wg.Add(1)
		go func(ci int, cand time.Duration) {
			defer wg.Done()
			probe := &Rule{Config: r.Config}
			probe.Config.RuleGenWindow = cand
			probe.chosenWindow = cand
			probe.rules = assoc.NewRuleSet(probe.mine(train, cand))
			var warnings []Warning
			for _, seg := range replay {
				warnings = append(warnings, probe.Predict(seg, predWindow)...)
			}
			scores[ci] = scoreF1(warnings, all)
		}(ci, cand)
	}
	wg.Wait()
	bestScore := -1.0
	for ci, cand := range r.Config.Candidates {
		if scores[ci] > bestScore {
			bestScore, best = scores[ci], cand
		}
	}
	return best
}

// splitSegments cuts a segment list at the cut-th point overall.
// Splitting a contiguous segment yields two contiguous pieces, so the
// train/holdout seam never admits a window spanning it.
func splitSegments(segments [][]preprocess.Point, cut int) (train, hold [][]preprocess.Point) {
	seen := 0
	for _, seg := range segments {
		switch {
		case seen+len(seg) <= cut:
			train = append(train, seg)
		case seen >= cut:
			hold = append(hold, seg)
		default:
			train = append(train, seg[:cut-seen])
			hold = append(hold, seg[cut-seen:])
		}
		seen += len(seg)
	}
	return train, hold
}

// scoreF1 computes the harmonic mean of warning precision and fatal
// recall over a test stream; used only for internal window selection.
func scoreF1(warnings []Warning, events []preprocess.Event) float64 {
	var fatals []time.Time
	for i := range events {
		if events[i].Sub.IsFatal() {
			fatals = append(fatals, events[i].Time)
		}
	}
	if len(fatals) == 0 || len(warnings) == 0 {
		return 0
	}
	covered := make([]bool, len(fatals))
	tp := 0
	for i := range warnings {
		w := &warnings[i]
		idx := sort.Search(len(fatals), func(k int) bool { return fatals[k].After(w.Start) })
		hit := false
		for k := idx; k < len(fatals) && !fatals[k].After(w.End); k++ {
			covered[k] = true
			hit = true
		}
		if hit {
			tp++
		}
	}
	nCovered := 0
	for _, c := range covered {
		if c {
			nCovered++
		}
	}
	precision := float64(tp) / float64(len(warnings))
	recall := float64(nCovered) / float64(len(fatals))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// Predict implements Predictor (step 6): slide a window of recent
// non-fatal events over the test stream; whenever the observed set
// matches a rule body, raise a warning carrying the best matching
// rule's confidence. A warning behaves as a standing alarm: while it
// is active, further matching evidence renews it (extending its
// coverage and upgrading its confidence) instead of raising a second
// alarm — one precursor episode therefore yields one prediction. The
// replay is a meta-learner over this one base, so the evaluated
// behaviour is the deployed Stepper's.
func (r *Rule) Predict(events []preprocess.Event, window time.Duration) []Warning {
	if r.rules == nil || r.rules.Len() == 0 {
		return nil
	}
	return NewMetaBases(r).Predict(events, window)
}
