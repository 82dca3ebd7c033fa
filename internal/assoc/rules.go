package assoc

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Rule is a combined association rule Body -> Heads (paper §3.2.2
// step 3): observing every body item predicts that at least one of the
// head (fatal) items is imminent.
type Rule struct {
	Body  Itemset // non-fatal precursor items
	Heads Itemset // fatal items the body predicts

	// BodyCount is the number of transactions containing Body.
	BodyCount int
	// JointCount is the number of transactions containing Body plus at
	// least one head.
	JointCount int
	// Support is JointCount over the transaction count.
	Support float64
	// Confidence is JointCount / BodyCount: the probability that some
	// head failure accompanies the body.
	Confidence float64
}

// Matches reports whether every body item is present in observed
// (a sorted itemset).
func (r *Rule) Matches(observed Itemset) bool {
	return observed.ContainsAll(r.Body)
}

// String renders the rule in the paper's Figure 3 style when names are
// unavailable: "{3 7} ==> {15}: 0.71".
func (r *Rule) String() string {
	return fmt.Sprintf("%v ==> %v: %.6g", r.Body, r.Heads, r.Confidence)
}

// Format renders the rule with item names resolved through name, in
// the exact layout of paper Figure 3
// ("a b ==> f: 0.947368").
func (r *Rule) Format(name func(Item) string) string {
	var b strings.Builder
	for i, it := range r.Body {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name(it))
	}
	b.WriteString(" ==> ")
	for i, it := range r.Heads {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name(it))
	}
	fmt.Fprintf(&b, ": %.6g", r.Confidence)
	return b.String()
}

// Config parameterizes rule mining. Zero values select the paper's
// settings.
type Config struct {
	// MinSupport is the fractional minimum support; the paper uses 0.04.
	MinSupport float64
	// MinConfidence is the minimum rule confidence; the paper uses 0.2.
	MinConfidence float64
	// MaxBodyLen bounds the precursor-set size; default 4 (the longest
	// rule shown in paper Figure 3 has a four-item body).
	MaxBodyLen int
	// MaxBodyItemShare excludes ubiquitous items from rule bodies: an
	// item present in more than this fraction of transactions carries
	// no predictive information (periodic heartbeats would otherwise
	// decorate every rule). Default 0.15.
	MaxBodyItemShare float64
	// MinCountFloor is the absolute minimum number of supporting
	// transactions regardless of MinSupport — a rule witnessed once or
	// twice is never meaningful, however small the log. Default 5.
	MinCountFloor int
	// MinZ requires each rule's confidence to exceed the head's base
	// rate by MinZ binomial standard errors — the statistical
	// significance companion to MinLift, which alone cannot protect
	// rare heads from small-sample coincidences. Negative disables;
	// default 2.5.
	MinZ float64
	// MinLift requires each rule's confidence to exceed MinLift times
	// the head's base rate across all transactions. Without it, any
	// moderately common non-fatal item forms a rule onto the most
	// common failure type with confidence equal to that failure's
	// share — a rule with no information that floods prediction with
	// false alarms. Default 2.2.
	MinLift float64
	// Miner selects the frequent-itemset algorithm; default FPGrowth.
	Miner Miner
}

func (c Config) withDefaults() Config {
	if c.MinSupport == 0 {
		c.MinSupport = 0.04
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.2
	}
	if c.MaxBodyLen == 0 {
		c.MaxBodyLen = 4
	}
	if c.MaxBodyItemShare == 0 {
		c.MaxBodyItemShare = 0.15
	}
	if c.MinCountFloor == 0 {
		c.MinCountFloor = 5
	}
	if c.MinLift == 0 {
		c.MinLift = 2.2
	}
	if c.MinZ == 0 {
		c.MinZ = 2.5
	}
	if c.Miner == nil {
		c.Miner = &FPGrowth{}
	}
	return c
}

// MineRules extracts combined association rules from transactions
// (paper §3.2.2 steps 2-4). isHead classifies items as rule heads
// (fatal subcategories); all other items are body material. The
// returned rules are sorted by descending confidence.
func MineRules(tx []Transaction, isHead func(Item) bool, cfg Config) []Rule {
	cfg = cfg.withDefaults()
	if len(tx) == 0 {
		return nil
	}
	minCount := SupportCount(cfg.MinSupport, len(tx))
	if minCount < cfg.MinCountFloor {
		minCount = cfg.MinCountFloor
	}
	// Bodies have up to MaxBodyLen items plus one head.
	frequent := cfg.Miner.Mine(tx, minCount, cfg.MaxBodyLen+1)

	cover := newTxBits(tx, frequent)
	counts := make(map[string]int, len(frequent))
	for _, fi := range frequent {
		counts[fi.Items.Key()] = fi.Count
	}

	// Ubiquity cap: items in more than MaxBodyItemShare of the
	// transactions are ineligible as body material. Head base rates
	// feed the lift filter.
	maxBodyCount := int(cfg.MaxBodyItemShare * float64(len(tx)))
	ubiquitous := make(map[Item]bool)
	headRate := make(map[Item]float64)
	for _, fi := range frequent {
		if len(fi.Items) != 1 {
			continue
		}
		it := fi.Items[0]
		if isHead(it) {
			headRate[it] = float64(fi.Count) / float64(len(tx))
		} else if fi.Count > maxBodyCount {
			ubiquitous[it] = true
		}
	}

	// Step 2: raw rules body -> single head, then step 3: merge heads
	// over identical bodies.
	heads := make(map[string]map[Item]bool) // body key -> head set
	bodies := make(map[string]Itemset)
	for _, fi := range frequent {
		var headItem Item
		nHeads := 0
		skip := false
		body := make(Itemset, 0, len(fi.Items))
		for _, it := range fi.Items {
			switch {
			case isHead(it):
				headItem = it
				nHeads++
			case ubiquitous[it]:
				skip = true
			default:
				body = append(body, it)
			}
		}
		// A rule needs exactly one head (step 2 mines body -> f), a
		// non-empty body, and no ubiquitous body items.
		if skip || nHeads != 1 || len(body) == 0 {
			continue
		}
		bodyCount, ok := counts[body.Key()]
		if !ok || bodyCount == 0 {
			// Anti-monotonicity guarantees the body is frequent whenever
			// body+head is; missing means maxLen clipped it, so recount.
			bodyCount, _ = cover.count(body, nil)
		}
		conf := float64(fi.Count) / float64(bodyCount)
		if conf < cfg.MinConfidence {
			continue
		}
		if conf < cfg.MinLift*headRate[headItem] {
			continue // no lift over the head's base rate
		}
		if cfg.MinZ > 0 {
			base := headRate[headItem]
			se := math.Sqrt(base * (1 - base) / float64(bodyCount))
			if conf < base+cfg.MinZ*se {
				continue // not significantly above the base rate
			}
		}
		key := body.Key()
		if heads[key] == nil {
			heads[key] = make(map[Item]bool)
			bodies[key] = body
		}
		heads[key][headItem] = true
	}

	// Step 3 continued: compute exact combined counts from the
	// transaction bitsets of each body's and head set's items.
	rules := make([]Rule, 0, len(heads))
	for key, headSet := range heads {
		body := bodies[key]
		hs := make(Itemset, 0, len(headSet))
		for h := range headSet {
			hs = append(hs, h)
		}
		slices.Sort(hs)
		bodyCount, jointCount := cover.count(body, hs)
		if bodyCount == 0 {
			continue
		}
		conf := float64(jointCount) / float64(bodyCount)
		if conf < cfg.MinConfidence {
			continue
		}
		rules = append(rules, Rule{
			Body:       body,
			Heads:      hs,
			BodyCount:  bodyCount,
			JointCount: jointCount,
			Support:    float64(jointCount) / float64(len(tx)),
			Confidence: conf,
		})
	}

	// Step 4: sort by descending confidence; deterministic tie-breaks.
	slices.SortFunc(rules, func(a, b Rule) int {
		return cmp.Or(
			cmp.Compare(b.Confidence, a.Confidence),
			cmp.Compare(b.Support, a.Support),
			cmp.Compare(len(a.Body), len(b.Body)),
			slices.Compare(a.Body, b.Body),
		)
	})
	return rules
}

// txBits holds, for each item of the frequent itemsets, the bitset of
// the transactions containing it. Counting a body is then an AND of
// its items' bitsets and a population count, a word per 64
// transactions, instead of a merge of two sorted lists per transaction.
type txBits struct {
	bit       itemTable // item -> index of its bitset + 1
	words     int       // words per bitset
	sets      []uint64  // item k's bitset is sets[k*words : (k+1)*words]
	body, hit []uint64  // scratch for count
}

func newTxBits(tx []Transaction, frequent []FrequentItemset) *txBits {
	b := &txBits{words: (len(tx) + 63) / 64}
	n := int32(0)
	for _, fi := range frequent {
		for _, it := range fi.Items {
			if b.bit.get(it) == 0 {
				n++
				b.bit.set(it, n)
			}
		}
	}
	b.sets = make([]uint64, int(n)*b.words)
	for i, t := range tx {
		for _, it := range t {
			if k := int(b.bit.get(it)); k > 0 {
				b.sets[(k-1)*b.words+i/64] |= 1 << (i % 64)
			}
		}
	}
	b.body = make([]uint64, b.words)
	b.hit = make([]uint64, b.words)
	return b
}

// set is item it's bitset; it must be an item of the frequent itemsets.
func (b *txBits) set(it Item) []uint64 {
	k := int(b.bit.get(it)) - 1
	return b.sets[k*b.words : (k+1)*b.words]
}

// count reports how many transactions contain body, and how many of
// those also contain at least one of heads.
func (b *txBits) count(body, heads Itemset) (bodyCount, jointCount int) {
	copy(b.body, b.set(body[0]))
	for _, it := range body[1:] {
		for w, x := range b.set(it) {
			b.body[w] &= x
		}
	}
	clear(b.hit)
	for _, it := range heads {
		for w, x := range b.set(it) {
			b.hit[w] |= x
		}
	}
	for w, x := range b.body {
		bodyCount += bits.OnesCount64(x)
		jointCount += bits.OnesCount64(x & b.hit[w])
	}
	return bodyCount, jointCount
}

// RuleSet is an ordered rule collection supporting best-match lookup;
// rules must be sorted by descending confidence (as MineRules returns).
type RuleSet struct {
	Rules []Rule
}

// NewRuleSet wraps mined rules.
func NewRuleSet(rules []Rule) *RuleSet { return &RuleSet{Rules: rules} }

// BestMatch returns the highest-confidence rule whose body is contained
// in observed, per paper §3.2.2 step 6 ("if multiple rules are
// observed, select the rule with the highest confidence").
func (rs *RuleSet) BestMatch(observed Itemset) (*Rule, bool) {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(observed) {
			return &rs.Rules[i], true
		}
	}
	return nil, false
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Prune removes dominated rules: a rule is dominated when another
// rule's body is a subset of its body with confidence at least as
// high — the dominating rule fires whenever (and no later than) the
// dominated one would, so BestMatch can never prefer the latter.
// Pruning changes no prediction; it shrinks the set mining inflation
// produces (every frequent superset of a good body yields a shadow
// rule). Returns the number of rules removed.
func (rs *RuleSet) Prune() int {
	keep := rs.Rules[:0]
	removed := 0
	for i := range rs.Rules {
		r := &rs.Rules[i]
		dominated := false
		for j := range rs.Rules {
			if i == j {
				continue
			}
			q := &rs.Rules[j]
			if q.Confidence < r.Confidence {
				continue
			}
			if len(q.Body) < len(r.Body) && r.Body.ContainsAll(q.Body) {
				dominated = true
				break
			}
			// Equal bodies cannot occur (MineRules merges them), so a
			// strict-subset check suffices.
		}
		if dominated {
			removed++
			continue
		}
		keep = append(keep, *r)
	}
	rs.Rules = keep
	return removed
}
