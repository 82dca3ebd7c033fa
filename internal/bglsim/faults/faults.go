// Package faults models the failure behaviour of a Blue Gene/L system
// as a set of stochastic episode templates whose structure matches the
// fault patterns the paper's predictor mines:
//
//   - Chain episodes: non-fatal precursor events followed (with a
//     template confidence) by a fatal event — the causal correlations
//     behind the rule-based predictor and paper Figure 3's rules.
//     With probability 1-confidence the chain aborts: precursors appear
//     but no failure follows (the rule predictor's false positives).
//   - Cascade episodes: bursts of fatal events in close temporal
//     proximity, dominated by network and I/O-stream failures — the
//     temporal correlation behind the statistical predictor and the
//     steep head of paper Figure 2's CDF.
//   - Isolated episodes: single fatal events with no precursors — the
//     31-75% of failures the paper reports as unpredictable by rules.
//   - Noise processes: background non-fatal events uncorrelated with
//     failures.
package faults

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"bglpred/internal/catalog"
)

// Kind tags a logical event with the episode mechanism that produced
// it — the simulator's ground truth, used for calibration tests.
type Kind int

// Episode kinds.
const (
	KindNoise Kind = iota
	KindChainPrecursor
	KindChainFatal
	KindChainAbortedPrecursor
	KindCascadePrecursor
	KindCascadeFatal
	KindIsolatedFatal
)

var kindNames = [...]string{
	KindNoise:                 "noise",
	KindChainPrecursor:        "chain-precursor",
	KindChainFatal:            "chain-fatal",
	KindChainAbortedPrecursor: "chain-aborted-precursor",
	KindCascadePrecursor:      "cascade-precursor",
	KindCascadeFatal:          "cascade-fatal",
	KindIsolatedFatal:         "isolated-fatal",
}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// LogicalEvent is one deduplicated event prior to CMCS duplication:
// what a perfect preprocessor would recover from the raw log.
type LogicalEvent struct {
	Time    time.Time
	Sub     *catalog.Subcategory
	Kind    Kind
	Episode int // episode sequence number; 0 for noise
}

// Delay is a truncated exponential delay distribution.
type Delay struct {
	Min  time.Duration
	Mean time.Duration // mean of the exponential part, added to Min
	Max  time.Duration // 0 means unbounded
}

// Draw samples the delay.
func (d Delay) Draw(rng *rand.Rand) time.Duration {
	v := d.Min
	if d.Mean > 0 {
		v += time.Duration(-math.Log(1-rng.Float64()) * float64(d.Mean))
	}
	if d.Max > 0 && v > d.Max {
		v = d.Max
	}
	return v
}

// Chain is a precursor-chain template (one fault family). Episodes
// arrive as a Poisson process; each instance emits the precursor
// subcategories in order, then, with probability Confidence, the fatal.
type Chain struct {
	// Name identifies the template in ground-truth summaries.
	Name string
	// Precursors are emitted in order, separated by PrecursorGap.
	Precursors []*catalog.Subcategory
	// PrecursorGap separates consecutive precursors.
	PrecursorGap Delay
	// FatalGap separates the last precursor from the fatal event. Its
	// scale is what makes a rule-generation window "best" for a system
	// (15 min at ANL, 25 min at SDSC in the paper).
	FatalGap Delay
	// Fatal is the failure this family culminates in.
	Fatal *catalog.Subcategory
	// Confidence is the completion probability; aborted instances leave
	// precursors with no failure (rule false positives).
	Confidence float64
	// PrecursorDrop is the probability each precursor is independently
	// missing from an instance (imperfect reporting).
	PrecursorDrop float64
	// Episodes is the expected instance count over the full log span.
	Episodes float64

	// BurstMembers, when non-empty, turns a completed chain's fatal
	// into the first member of a failure burst: BurstExtraMean further
	// fatal events (geometric) follow at Gap/GapLong spacing. This
	// models the I/O and network fault families whose failures both
	// have precursors (rule-predictable) and cluster in time
	// (statistically predictable) — the overlap that lets the paper's
	// meta-learner beat both bases at once.
	BurstMembers    []Weighted
	BurstExtraMean  float64
	BurstGap        Delay
	BurstGapLong    Delay
	BurstGapLongPct float64

	// TailMembers, drawn with probability TailProb after the last
	// burst member (TailGap later), model casualties of the storm:
	// typically application failures brought down by the I/O or
	// network trouble. Tails are followed by nothing, so they add
	// statistical-recall coverage without making their category a
	// trigger.
	TailMembers []Weighted
	TailProb    float64
	TailGap     Delay
}

// Weighted pairs a cascade member subcategory with a selection weight.
type Weighted struct {
	Sub    *catalog.Subcategory
	Weight float64
}

// Cascade is a correlated-burst template: a first fatal event followed
// by a geometrically distributed number of further fatal events in
// close succession.
type Cascade struct {
	Name string
	// Members is the weighted mix the burst draws from.
	Members []Weighted
	// ExtraMean is the mean number of events following the first
	// (burst size = 1 + Geometric with this mean).
	ExtraMean float64
	// Gap separates consecutive burst members (the common, short mode:
	// paper Figure 2 shows "a significant number of failures happen in
	// close proximity"). GapLong, drawn with probability GapLongProb,
	// models the slower tail that the standalone statistical predictor
	// harvests in its (5 min, 1 h] window.
	Gap         Delay
	GapLong     Delay
	GapLongProb float64
	// Episodes is the expected burst count over the full log span.
	Episodes float64
	// Precursors, when non-empty, are emitted before the first burst
	// member with probability PrecursorProb — some failure storms do
	// announce themselves, which lets the rule predictor catch a
	// cascade's first member while the statistical predictor catches
	// the rest.
	Precursors    []*catalog.Subcategory
	PrecursorProb float64
	// PrecursorGap separates consecutive precursors; LeadGap separates
	// the last precursor from the first burst member.
	PrecursorGap Delay
	LeadGap      Delay

	// TailMembers/TailProb/TailGap: storm casualties, as on Chain.
	TailMembers []Weighted
	TailProb    float64
	TailGap     Delay
}

// Isolated is a lone-failure template: fatal events with neither
// precursors nor followers.
type Isolated struct {
	Sub      *catalog.Subcategory
	Episodes float64
}

// Noise is a background process of non-fatal events.
type Noise struct {
	Sub *catalog.Subcategory
	// PerDay is the expected unique-event rate per day.
	PerDay float64
}

// Model is the full fault behaviour of one system profile.
type Model struct {
	Chains   []Chain
	Cascades []Cascade
	Isolated []Isolated
	Noise    []Noise

	// ClusterProb is the probability that an episode starts near a
	// previously placed episode instead of uniformly in the span —
	// large systems see instability periods in which unrelated fault
	// families fire together, which is part of the temporal
	// correlation Figure 2 measures.
	ClusterProb float64
	// ClusterGap is the offset of a clustered episode from its
	// anchor's start (default mean 20 minutes).
	ClusterGap Delay
}

// Validate checks template sanity: probabilities in range, fatal heads
// fatal, precursors non-fatal, positive episode counts.
func (m *Model) Validate() error {
	for _, c := range m.Chains {
		if c.Fatal == nil || !c.Fatal.IsFatal() {
			return fmt.Errorf("faults: chain %q: fatal subcategory missing or non-fatal", c.Name)
		}
		if len(c.Precursors) == 0 {
			return fmt.Errorf("faults: chain %q: no precursors", c.Name)
		}
		for _, p := range c.Precursors {
			if p.IsFatal() {
				return fmt.Errorf("faults: chain %q: precursor %s is fatal", c.Name, p.Name)
			}
		}
		if c.Confidence <= 0 || c.Confidence > 1 {
			return fmt.Errorf("faults: chain %q: confidence %v out of (0,1]", c.Name, c.Confidence)
		}
		if c.PrecursorDrop < 0 || c.PrecursorDrop >= 1 {
			return fmt.Errorf("faults: chain %q: precursor drop %v out of [0,1)", c.Name, c.PrecursorDrop)
		}
		if c.Episodes <= 0 {
			return fmt.Errorf("faults: chain %q: nonpositive episodes", c.Name)
		}
		for _, w := range c.BurstMembers {
			if !w.Sub.IsFatal() {
				return fmt.Errorf("faults: chain %q: burst member %s not fatal", c.Name, w.Sub.Name)
			}
			if w.Weight <= 0 {
				return fmt.Errorf("faults: chain %q: nonpositive weight for burst member %s", c.Name, w.Sub.Name)
			}
		}
		for _, w := range c.TailMembers {
			if !w.Sub.IsFatal() {
				return fmt.Errorf("faults: chain %q: tail member %s not fatal", c.Name, w.Sub.Name)
			}
		}
		if c.TailProb < 0 || c.TailProb > 1 {
			return fmt.Errorf("faults: chain %q: tail probability %v out of [0,1]", c.Name, c.TailProb)
		}
	}
	for _, c := range m.Cascades {
		if len(c.Members) == 0 {
			return fmt.Errorf("faults: cascade %q: no members", c.Name)
		}
		for _, w := range c.Members {
			if !w.Sub.IsFatal() {
				return fmt.Errorf("faults: cascade %q: member %s not fatal", c.Name, w.Sub.Name)
			}
			if w.Weight <= 0 {
				return fmt.Errorf("faults: cascade %q: nonpositive weight for %s", c.Name, w.Sub.Name)
			}
		}
		if c.Episodes <= 0 {
			return fmt.Errorf("faults: cascade %q: nonpositive episodes", c.Name)
		}
		for _, p := range c.Precursors {
			if p.IsFatal() {
				return fmt.Errorf("faults: cascade %q: precursor %s is fatal", c.Name, p.Name)
			}
		}
		if c.PrecursorProb < 0 || c.PrecursorProb > 1 {
			return fmt.Errorf("faults: cascade %q: precursor probability %v out of [0,1]", c.Name, c.PrecursorProb)
		}
		for _, w := range c.TailMembers {
			if !w.Sub.IsFatal() {
				return fmt.Errorf("faults: cascade %q: tail member %s not fatal", c.Name, w.Sub.Name)
			}
		}
		if c.TailProb < 0 || c.TailProb > 1 {
			return fmt.Errorf("faults: cascade %q: tail probability %v out of [0,1]", c.Name, c.TailProb)
		}
	}
	for _, i := range m.Isolated {
		if !i.Sub.IsFatal() {
			return fmt.Errorf("faults: isolated %s not fatal", i.Sub.Name)
		}
	}
	for _, n := range m.Noise {
		if n.Sub.IsFatal() {
			return fmt.Errorf("faults: noise %s is fatal", n.Sub.Name)
		}
		if n.PerDay < 0 {
			return fmt.Errorf("faults: noise %s: negative rate", n.Sub.Name)
		}
	}
	return nil
}

// ExpectedFatals returns the expected fatal-event count per main
// category over the full span — the calibration target of paper
// Table 4.
func (m *Model) ExpectedFatals() map[catalog.Main]float64 {
	out := make(map[catalog.Main]float64)
	addWeighted := func(members []Weighted, expected float64) {
		var totalW float64
		for _, w := range members {
			totalW += w.Weight
		}
		if totalW == 0 {
			return
		}
		for _, w := range members {
			out[w.Sub.Main] += expected * w.Weight / totalW
		}
	}
	for _, c := range m.Chains {
		out[c.Fatal.Main] += c.Episodes * c.Confidence
		if len(c.BurstMembers) > 0 && c.BurstExtraMean > 0 {
			addWeighted(c.BurstMembers, c.Episodes*c.Confidence*c.BurstExtraMean)
		}
		addWeighted(c.TailMembers, c.Episodes*c.Confidence*c.TailProb)
	}
	for _, c := range m.Cascades {
		addWeighted(c.Members, c.Episodes*(1+c.ExtraMean))
		addWeighted(c.TailMembers, c.Episodes*c.TailProb)
	}
	for _, i := range m.Isolated {
		out[i.Sub.Main] += i.Episodes
	}
	return out
}

// Synthesize draws one realization of the model over [start, end),
// scaling episode counts by the span relative to fullSpan (so a
// shortened log keeps the same event *rates*). Events are returned in
// time order.
func (m *Model) Synthesize(rng *rand.Rand, start, end time.Time, fullSpan time.Duration) []LogicalEvent {
	span := end.Sub(start)
	if span <= 0 {
		return nil
	}
	scale := float64(span) / float64(fullSpan)
	var out []LogicalEvent
	episode := 0

	clusterGap := m.ClusterGap
	if clusterGap.Mean == 0 && clusterGap.Min == 0 {
		clusterGap = Delay{Min: time.Minute, Mean: 20 * time.Minute, Max: 2 * time.Hour}
	}
	// Episode start placement: uniform, or — with ClusterProb — near a
	// previously placed episode, modelling instability periods.
	var anchors []time.Time
	place := func() time.Time {
		if len(anchors) > 0 && rng.Float64() < m.ClusterProb {
			at := anchors[rng.IntN(len(anchors))].Add(clusterGap.Draw(rng))
			if at.Before(end) {
				anchors = append(anchors, at)
				return at
			}
		}
		at := start.Add(time.Duration(rng.Float64() * float64(span)))
		anchors = append(anchors, at)
		return at
	}

	for _, c := range m.Chains {
		n := poisson(rng, c.Episodes*scale)
		for i := 0; i < n; i++ {
			episode++
			out = append(out, synthChain(rng, &c, place(), episode)...)
		}
	}
	for _, c := range m.Cascades {
		n := poisson(rng, c.Episodes*scale)
		for i := 0; i < n; i++ {
			episode++
			out = append(out, synthCascade(rng, &c, place(), episode)...)
		}
	}
	for _, iso := range m.Isolated {
		n := poisson(rng, iso.Episodes*scale)
		for i := 0; i < n; i++ {
			episode++
			out = append(out, LogicalEvent{Time: place(), Sub: iso.Sub, Kind: KindIsolatedFatal, Episode: episode})
		}
	}
	days := span.Hours() / 24
	for _, nz := range m.Noise {
		n := poisson(rng, nz.PerDay*days)
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(rng.Float64() * float64(span)))
			out = append(out, LogicalEvent{Time: at, Sub: nz.Sub, Kind: KindNoise})
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func synthChain(rng *rand.Rand, c *Chain, at time.Time, episode int) []LogicalEvent {
	completes := rng.Float64() < c.Confidence
	pKind := KindChainPrecursor
	if !completes {
		pKind = KindChainAbortedPrecursor
	}
	var out []LogicalEvent
	t := at
	for i, p := range c.Precursors {
		if i > 0 {
			t = t.Add(c.PrecursorGap.Draw(rng))
		}
		if rng.Float64() < c.PrecursorDrop {
			continue
		}
		out = append(out, LogicalEvent{Time: t, Sub: p, Kind: pKind, Episode: episode})
	}
	// A chain instance that dropped every precursor and aborted emits
	// nothing; one that completes always emits its fatal.
	if !completes {
		return out
	}
	t = t.Add(c.FatalGap.Draw(rng))
	out = append(out, LogicalEvent{Time: t, Sub: c.Fatal, Kind: KindChainFatal, Episode: episode})

	if len(c.BurstMembers) > 0 && c.BurstExtraMean > 0 {
		extra := geometric(rng, c.BurstExtraMean)
		var totalW float64
		for _, w := range c.BurstMembers {
			totalW += w.Weight
		}
		prev := c.Fatal
		for i := 0; i < extra; i++ {
			gap := c.BurstGap
			if c.BurstGapLongPct > 0 && rng.Float64() < c.BurstGapLongPct {
				gap = c.BurstGapLong
			}
			t = t.Add(gap.Draw(rng))
			sub := pickWeighted(rng, c.BurstMembers, totalW)
			for len(c.BurstMembers) > 1 && sub == prev {
				sub = pickWeighted(rng, c.BurstMembers, totalW)
			}
			prev = sub
			out = append(out, LogicalEvent{Time: t, Sub: sub, Kind: KindCascadeFatal, Episode: episode})
		}
	}
	return appendTail(rng, out, t, c.TailMembers, c.TailProb, c.TailGap, episode)
}

// appendTail emits a storm-casualty event with probability prob.
func appendTail(rng *rand.Rand, out []LogicalEvent, last time.Time, members []Weighted, prob float64, gap Delay, episode int) []LogicalEvent {
	if len(members) == 0 || rng.Float64() >= prob {
		return out
	}
	var totalW float64
	for _, w := range members {
		totalW += w.Weight
	}
	return append(out, LogicalEvent{
		Time:    last.Add(gap.Draw(rng)),
		Sub:     pickWeighted(rng, members, totalW),
		Kind:    KindCascadeFatal,
		Episode: episode,
	})
}

func pickWeighted(rng *rand.Rand, members []Weighted, totalW float64) *catalog.Subcategory {
	x := rng.Float64() * totalW
	for _, w := range members {
		x -= w.Weight
		if x < 0 {
			return w.Sub
		}
	}
	return members[len(members)-1].Sub
}

func synthCascade(rng *rand.Rand, c *Cascade, at time.Time, episode int) []LogicalEvent {
	size := 1 + geometric(rng, c.ExtraMean)
	var totalW float64
	for _, w := range c.Members {
		totalW += w.Weight
	}
	pick := func() *catalog.Subcategory { return pickWeighted(rng, c.Members, totalW) }
	out := make([]LogicalEvent, 0, size+len(c.Precursors))
	t := at
	if len(c.Precursors) > 0 && rng.Float64() < c.PrecursorProb {
		for i, p := range c.Precursors {
			if i > 0 {
				t = t.Add(c.PrecursorGap.Draw(rng))
			}
			out = append(out, LogicalEvent{Time: t, Sub: p, Kind: KindCascadePrecursor, Episode: episode})
		}
		t = t.Add(c.LeadGap.Draw(rng))
	}
	var prev *catalog.Subcategory
	for i := 0; i < size; i++ {
		if i > 0 {
			gap := c.Gap
			if c.GapLongProb > 0 && rng.Float64() < c.GapLongProb {
				gap = c.GapLong
			}
			t = t.Add(gap.Draw(rng))
		}
		sub := pick()
		// Avoid immediate same-subcategory repeats: short burst gaps
		// would otherwise fall to Phase 1's temporal compression and
		// vanish from the compressed log.
		for len(c.Members) > 1 && sub == prev {
			sub = pick()
		}
		prev = sub
		out = append(out, LogicalEvent{Time: t, Sub: sub, Kind: KindCascadeFatal, Episode: episode})
	}
	return appendTail(rng, out, t, c.TailMembers, c.TailProb, c.TailGap, episode)
}

// poisson draws a Poisson variate with the given mean, using inversion
// for small means and a normal approximation for large ones.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// geometric draws a geometric variate (support 0,1,2,...) with the
// given mean.
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean) // success probability; mean = (1-p)/p
	n := 0
	for rng.Float64() >= p {
		n++
		if n > 10000 {
			return n
		}
	}
	return n
}

// FatalByMain tallies fatal logical events by main category — the
// simulator-side Table 4.
func FatalByMain(events []LogicalEvent) map[catalog.Main]int {
	out := make(map[catalog.Main]int)
	for _, e := range events {
		if e.Sub.IsFatal() {
			out[e.Sub.Main]++
		}
	}
	return out
}
