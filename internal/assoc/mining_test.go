package assoc

import (
	"maps"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// classicTx is the textbook example from Han et al.'s FP-growth paper.
var classicTx = []Transaction{
	NewItemset(1, 2, 5),
	NewItemset(2, 4),
	NewItemset(2, 3),
	NewItemset(1, 2, 4),
	NewItemset(1, 3),
	NewItemset(2, 3),
	NewItemset(1, 3),
	NewItemset(1, 2, 3, 5),
	NewItemset(1, 2, 3),
}

// bruteForce counts every itemset appearing in any transaction.
func bruteForce(tx []Transaction, minCount, maxLen int) map[string]int {
	counts := map[string]int{}
	var rec func(t Transaction, start int, cur Itemset)
	rec = func(t Transaction, start int, cur Itemset) {
		if len(cur) > 0 {
			counts[cur.Key()]++
		}
		if maxLen > 0 && len(cur) >= maxLen {
			return
		}
		for i := start; i < len(t); i++ {
			rec(t, i+1, append(cur, t[i]))
		}
	}
	for _, t := range tx {
		rec(t, 0, nil)
	}
	for k, c := range counts {
		if c < minCount {
			delete(counts, k)
		}
	}
	return counts
}

func toMap(fs []FrequentItemset) map[string]int {
	m := make(map[string]int, len(fs))
	for _, fi := range fs {
		m[fi.Items.Key()] = fi.Count
	}
	return m
}

func minersUnderTest() map[string]Miner {
	return map[string]Miner{
		"apriori":  &Apriori{},
		"fpgrowth": &FPGrowth{},
	}
}

func TestMinersMatchBruteForceOnClassic(t *testing.T) {
	for _, minCount := range []int{1, 2, 3, 5} {
		want := bruteForce(classicTx, minCount, 0)
		for name, m := range minersUnderTest() {
			got := toMap(m.Mine(classicTx, minCount, 0))
			if len(got) != len(want) {
				t.Errorf("%s minCount=%d: %d itemsets, want %d", name, minCount, len(got), len(want))
				continue
			}
			for k, c := range want {
				if got[k] != c {
					t.Errorf("%s minCount=%d: count mismatch for key %q: got %d want %d",
						name, minCount, k, got[k], c)
				}
			}
		}
	}
}

func TestMinersRespectMaxLen(t *testing.T) {
	for name, m := range minersUnderTest() {
		for _, maxLen := range []int{1, 2, 3} {
			for _, fi := range m.Mine(classicTx, 1, maxLen) {
				if len(fi.Items) > maxLen {
					t.Errorf("%s: itemset %v exceeds maxLen %d", name, fi.Items, maxLen)
				}
			}
			want := bruteForce(classicTx, 1, maxLen)
			got := toMap(m.Mine(classicTx, 1, maxLen))
			if len(got) != len(want) {
				t.Errorf("%s maxLen=%d: %d itemsets, want %d", name, maxLen, len(got), len(want))
			}
		}
	}
}

func TestMinersEmptyInputs(t *testing.T) {
	for name, m := range minersUnderTest() {
		if got := m.Mine(nil, 1, 0); len(got) != 0 {
			t.Errorf("%s: Mine(nil) = %v", name, got)
		}
		if got := m.Mine([]Transaction{{}, {}}, 1, 0); len(got) != 0 {
			t.Errorf("%s: Mine(empty tx) = %v", name, got)
		}
	}
}

func randomTransactions(rng *rand.Rand, n, maxItems, universe int) []Transaction {
	tx := make([]Transaction, n)
	for i := range tx {
		tx[i] = randomItemset(rng, maxItems, universe)
	}
	return tx
}

func TestAprioriEqualsFPGrowthProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	ap := &Apriori{}
	fp := &FPGrowth{}
	f := func() bool {
		tx := randomTransactions(rng, 5+rng.IntN(60), 8, 12)
		minCount := 1 + rng.IntN(5)
		maxLen := rng.IntN(5) // 0 = unbounded
		a := toMap(ap.Mine(tx, minCount, maxLen))
		b := toMap(fp.Mine(tx, minCount, maxLen))
		if len(a) != len(b) {
			return false
		}
		for k, c := range a {
			if b[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}

	// One wide input: more distinct frequent items than a byte can
	// number, mined with no length bound. Both miners must equal brute
	// force on it.
	wide := wideTransactions(400, 295, 6, 7)
	want := bruteForce(wide, 2, 0)
	if n := frequentSingletons(want); n <= 255 {
		t.Fatalf("wide input has only %d frequent items", n)
	}
	for name, m := range minersUnderTest() {
		if got := toMap(m.Mine(wide, 2, 0)); !maps.Equal(got, want) {
			t.Errorf("%s on the wide input: %d itemsets, brute force %d", name, len(got), len(want))
		}
	}
}

// wideTransactions builds nTx deterministic transactions of 2 to
// maxTxLen items drawn from nItems.
func wideTransactions(nTx, nItems, maxTxLen int, seed uint64) []Transaction {
	rng := rand.New(rand.NewPCG(seed, 0))
	tx := make([]Transaction, nTx)
	for i := range tx {
		items := make([]Item, 2+rng.IntN(maxTxLen-1))
		for j := range items {
			items[j] = rng.IntN(nItems)
		}
		tx[i] = NewItemset(items...)
	}
	return tx
}

// frequentSingletons counts the one-item keys of a bruteForce result.
func frequentSingletons(counts map[string]int) int {
	n := 0
	for k := range counts {
		if len(k) == 2 { // Key spends two bytes per item
			n++
		}
	}
	return n
}

func TestAntiMonotonicityProperty(t *testing.T) {
	// Every subset of a frequent itemset must itself be frequent, with
	// count >= the superset's count.
	rng := rand.New(rand.NewPCG(7, 8))
	fp := &FPGrowth{}
	f := func() bool {
		tx := randomTransactions(rng, 5+rng.IntN(40), 6, 10)
		minCount := 1 + rng.IntN(3)
		fs := fp.Mine(tx, minCount, 0)
		counts := toMap(fs)
		for _, fi := range fs {
			for skip := range fi.Items {
				sub := make(Itemset, 0, len(fi.Items)-1)
				for i, it := range fi.Items {
					if i != skip {
						sub = append(sub, it)
					}
				}
				if len(sub) == 0 {
					continue
				}
				c, ok := counts[sub.Key()]
				if !ok || c < fi.Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinersMatchBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	f := func() bool {
		tx := randomTransactions(rng, 3+rng.IntN(25), 5, 8)
		minCount := 1 + rng.IntN(3)
		want := bruteForce(tx, minCount, 0)
		for _, m := range minersUnderTest() {
			got := toMap(m.Mine(tx, minCount, 0))
			if len(got) != len(want) {
				return false
			}
			for k, c := range want {
				if got[k] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestJoinAndPrune pins Apriori's candidate step on a hand-worked
// level: {1,2}+{1,3} join to {1,2,3}, kept since {2,3} is frequent;
// {1,2,4} and {1,3,4} join but lack {2,4} and {3,4}; {2,3} shares no
// prefix with a later set and joins nothing.
func TestJoinAndPrune(t *testing.T) {
	level := []Itemset{
		NewItemset(1, 2), NewItemset(1, 3), NewItemset(1, 4), NewItemset(2, 3),
	}
	got := joinAndPrune(level)
	if len(got) != 1 || !got[0].Equal(NewItemset(1, 2, 3)) {
		t.Fatalf("joinAndPrune = %v, want [{1,2,3}]", got)
	}

	// With every 2-subset frequent, all four 3-sets survive, in
	// lexicographic order.
	full := []Itemset{
		NewItemset(1, 2), NewItemset(1, 3), NewItemset(1, 4),
		NewItemset(2, 3), NewItemset(2, 4), NewItemset(3, 4),
	}
	want := []Itemset{
		NewItemset(1, 2, 3), NewItemset(1, 2, 4), NewItemset(1, 3, 4), NewItemset(2, 3, 4),
	}
	got = joinAndPrune(full)
	if len(got) != len(want) {
		t.Fatalf("joinAndPrune = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("candidate %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAprioriEmitsLevelByLevel pins Apriori's documented output order:
// itemsets by length, each level in lexicographic order.
func TestAprioriEmitsLevelByLevel(t *testing.T) {
	out := (&Apriori{}).Mine(classicTx, 2, 0)
	if len(out) == 0 {
		t.Fatal("no itemsets")
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1].Items, out[i].Items
		if len(a) > len(b) {
			t.Fatalf("%v (len %d) before %v (len %d)", a, len(a), b, len(b))
		}
		if len(a) == len(b) && !lexLess(a, b) {
			t.Fatalf("level %d out of order: %v before %v", len(a), a, b)
		}
	}
}

// lexLess reports whether a sorts strictly before b, item by item.
func lexLess(a, b Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func BenchmarkApriori(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	tx := randomTransactions(rng, 5000, 12, 101)
	m := &Apriori{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mine(tx, 50, 5)
	}
}

func BenchmarkFPGrowth(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	tx := randomTransactions(rng, 5000, 12, 101)
	m := &FPGrowth{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mine(tx, 50, 5)
	}
}

// TestMineLevel1Deterministic pins the level-1 emission order: two
// mines of the same transactions must produce identical slices, and
// singleton itemsets must come out in ascending item order. A map-order
// iteration here leaked Go's randomized map order into the rule tables.
func TestMineLevel1Deterministic(t *testing.T) {
	for name, m := range minersUnderTest() {
		a := m.Mine(classicTx, 2, 1)
		b := m.Mine(classicTx, 2, 1)
		if len(a) == 0 {
			t.Fatalf("%s: no level-1 itemsets", name)
		}
		for i := range a {
			if a[i].Items.Key() != b[i].Items.Key() || a[i].Count != b[i].Count {
				t.Fatalf("%s: two mines disagree at %d: %v vs %v", name, i, a[i], b[i])
			}
			if i > 0 && a[i-1].Items[0] >= a[i].Items[0] {
				t.Fatalf("%s: level-1 itemsets out of order: %v before %v", name, a[i-1], a[i])
			}
		}
	}
}
