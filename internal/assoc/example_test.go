package assoc_test

import (
	"fmt"
	"sort"

	"bglpred/internal/assoc"
)

// sortFrequent orders frequent itemsets canonically (by length, then
// lexicographically) for deterministic comparisons.
func sortFrequent(fs []assoc.FrequentItemset) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Items, fs[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Mining a toy log: non-fatal item 1 precedes fatal item 100 in three
// of its four windows.
func ExampleMineRules() {
	tx := []assoc.Transaction{
		assoc.NewItemset(1, 100),
		assoc.NewItemset(1, 100),
		assoc.NewItemset(1, 100),
		assoc.NewItemset(1),
		assoc.NewItemset(2),
	}
	isFatal := func(it assoc.Item) bool { return it >= 100 }
	rules := assoc.MineRules(tx, isFatal, assoc.Config{
		MinSupport: 0.1, MinConfidence: 0.2,
		// Tiny toy dataset: disable the production-scale hygiene
		// filters (ubiquity cap, lift, significance, count floor).
		MaxBodyItemShare: 1, MinLift: 1e-9, MinCountFloor: 1, MinZ: -1,
	})
	for _, r := range rules {
		fmt.Printf("%v -> %v conf=%.2f support=%.2f\n", r.Body, r.Heads, r.Confidence, r.Support)
	}
	// Output: {1} -> {100} conf=0.75 support=0.60
}

// Both cited miners return identical frequent itemsets.
func ExampleFPGrowth_Mine() {
	tx := []assoc.Transaction{
		assoc.NewItemset(1, 2, 3),
		assoc.NewItemset(1, 2),
		assoc.NewItemset(1, 3),
	}
	fp := (&assoc.FPGrowth{}).Mine(tx, 2, 0)
	ap := (&assoc.Apriori{}).Mine(tx, 2, 0)
	sortFrequent(fp)
	sortFrequent(ap)
	fmt.Println("agree:", len(fp) == len(ap))
	for _, fi := range fp {
		fmt.Printf("%v x%d\n", fi.Items, fi.Count)
	}
	// Output:
	// agree: true
	// {1} x3
	// {2} x2
	// {3} x2
	// {1 2} x2
	// {1 3} x2
}
