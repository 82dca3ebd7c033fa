package assoc

import "sort"

// Apriori is the level-wise frequent-itemset miner of Agrawal &
// Srikant (paper reference [1]) in its textbook form: join frequent
// (k-1)-itemsets sharing a prefix into candidate k-itemsets, prune
// candidates with an infrequent (k-1)-subset, then count the survivors
// against every transaction. FPGrowth is the tuned miner production
// runs; Apriori is the reference it is held equal to and the paper's
// own algorithm in the miner ablation.
type Apriori struct{}

// Mine implements Miner. Itemsets come out level by level, each level
// in lexicographic order, so the output is deterministic.
func (a *Apriori) Mine(tx []Transaction, minCount, maxLen int) []FrequentItemset {
	if minCount < 1 {
		minCount = 1
	}
	counts := make(map[Item]int)
	for _, t := range tx {
		for _, it := range t {
			counts[it]++
		}
	}
	var items []Item
	for it, c := range counts {
		if c >= minCount {
			items = append(items, it)
		}
	}
	sort.Ints(items)
	var out []FrequentItemset
	var level []Itemset
	for _, it := range items {
		s := Itemset{it}
		out = append(out, FrequentItemset{Items: s, Count: counts[it]})
		level = append(level, s)
	}

	for k := 2; (maxLen <= 0 || k <= maxLen) && len(level) >= 2; k++ {
		candidates := joinAndPrune(level)
		level = nil
		for _, cand := range candidates {
			n := 0
			for _, t := range tx {
				if t.ContainsAll(cand) {
					n++
				}
			}
			if n >= minCount {
				out = append(out, FrequentItemset{Items: cand, Count: n})
				level = append(level, cand)
			}
		}
	}
	return out
}

// joinAndPrune produces candidate (k+1)-itemsets from the frequent
// k-itemsets of level, which must be in lexicographic order: join
// pairs sharing their first k-1 items, then drop candidates with any
// infrequent k-subset. Candidates come out in lexicographic order.
func joinAndPrune(level []Itemset) []Itemset {
	known := make(map[string]bool, len(level))
	for _, s := range level {
		known[s.Key()] = true
	}
	k := len(level[0])
	var cands []Itemset
	for i := range level {
		for j := i + 1; j < len(level) && samePrefix(level[i], level[j], k-1); j++ {
			cand := append(level[i].Clone(), level[j][k-1])
			if allSubsetsKnown(cand, known) {
				cands = append(cands, cand)
			}
		}
	}
	return cands
}

// allSubsetsKnown reports whether every (len-1)-subset of cand is in
// known.
func allSubsetsKnown(cand Itemset, known map[string]bool) bool {
	sub := make(Itemset, 0, len(cand)-1)
	for skip := range cand {
		sub = append(append(sub[:0], cand[:skip]...), cand[skip+1:]...)
		if !known[sub.Key()] {
			return false
		}
	}
	return true
}

func samePrefix(a, b Itemset, n int) bool { return a[:n].Equal(b[:n]) }
