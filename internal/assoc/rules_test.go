package assoc

import (
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// Items >= 100 act as fatal heads in these tests.
func testIsHead(it Item) bool { return it >= 100 }

// permissive disables the ubiquity and lift filters so tests can probe
// support/confidence mechanics on tiny hand-built datasets where every
// item is "ubiquitous" and head base rates are huge.
func permissive(minSup, minConf float64) Config {
	return Config{MinSupport: minSup, MinConfidence: minConf,
		MaxBodyItemShare: 1, MinLift: 1e-9, MinCountFloor: 1, MinZ: -1}
}

func TestMineRulesSimpleCausalChain(t *testing.T) {
	// Item 1 precedes failure 100 in 3 of 4 of its transactions.
	tx := []Transaction{
		NewItemset(1, 100),
		NewItemset(1, 100),
		NewItemset(1, 100),
		NewItemset(1),
		NewItemset(2), // unrelated
	}
	rules := MineRules(tx, testIsHead, permissive(0.1, 0.2))
	if len(rules) != 1 {
		t.Fatalf("got %d rules (%v), want 1", len(rules), rules)
	}
	r := rules[0]
	if !r.Body.Equal(NewItemset(1)) || !r.Heads.Equal(NewItemset(100)) {
		t.Fatalf("rule = %v", r)
	}
	if r.BodyCount != 4 || r.JointCount != 3 {
		t.Fatalf("counts = %d/%d, want 4/3", r.BodyCount, r.JointCount)
	}
	if want := 0.75; r.Confidence != want {
		t.Fatalf("confidence = %v, want %v", r.Confidence, want)
	}
	if want := 3.0 / 5.0; r.Support != want {
		t.Fatalf("support = %v, want %v", r.Support, want)
	}
}

func TestMineRulesCombinesHeads(t *testing.T) {
	// Body {1} precedes failure 100 twice and failure 101 twice; the
	// combined rule {1} -> {100 101} must count any-head transactions.
	tx := []Transaction{
		NewItemset(1, 100),
		NewItemset(1, 100),
		NewItemset(1, 101),
		NewItemset(1, 101),
		NewItemset(1),
	}
	rules := MineRules(tx, testIsHead, permissive(0.2, 0.2))
	if len(rules) != 1 {
		t.Fatalf("got %d rules (%v), want 1 combined", len(rules), rules)
	}
	r := rules[0]
	if !r.Heads.Equal(NewItemset(100, 101)) {
		t.Fatalf("heads = %v, want {100 101}", r.Heads)
	}
	// Combined confidence: 4 of 5 body transactions carry some head —
	// higher than either single-head rule (0.4 each).
	if want := 0.8; r.Confidence != want {
		t.Fatalf("combined confidence = %v, want %v", r.Confidence, want)
	}
}

func TestMineRulesMinConfidenceFilters(t *testing.T) {
	tx := []Transaction{
		NewItemset(1, 100),
		NewItemset(1),
		NewItemset(1),
		NewItemset(1),
		NewItemset(1),
	}
	// Confidence 0.2 passes at threshold 0.2 but not above.
	if rules := MineRules(tx, testIsHead, permissive(0.1, 0.2)); len(rules) != 1 {
		t.Fatalf("at threshold: %d rules, want 1", len(rules))
	}
	if rules := MineRules(tx, testIsHead, permissive(0.1, 0.25)); len(rules) != 0 {
		t.Fatalf("above threshold: %d rules, want 0", len(rules))
	}
}

func TestMineRulesMinSupportFilters(t *testing.T) {
	// Pair (2,101) appears once in 10 transactions: support 0.1.
	tx := make([]Transaction, 10)
	for i := range tx {
		tx[i] = NewItemset(1, 100)
	}
	tx[9] = NewItemset(2, 101)
	rules := MineRules(tx, testIsHead, permissive(0.2, 0.2))
	for _, r := range rules {
		if r.Body.Contains(2) {
			t.Fatalf("low-support rule survived: %v", r)
		}
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(rules))
	}
}

func TestMineRulesSortedByConfidence(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	var tx []Transaction
	// Three bodies with distinct confidences.
	for i := 0; i < 100; i++ {
		if rng.Float64() < 0.9 {
			tx = append(tx, NewItemset(1, 100))
		} else {
			tx = append(tx, NewItemset(1))
		}
		if rng.Float64() < 0.5 {
			tx = append(tx, NewItemset(2, 100))
		} else {
			tx = append(tx, NewItemset(2))
		}
		if rng.Float64() < 0.25 {
			tx = append(tx, NewItemset(3, 100))
		} else {
			tx = append(tx, NewItemset(3))
		}
	}
	rules := MineRules(tx, testIsHead, permissive(0.01, 0.1))
	if !sort.SliceIsSorted(rules, func(i, j int) bool {
		return rules[i].Confidence > rules[j].Confidence
	}) {
		t.Fatalf("rules not sorted by confidence: %v", rules)
	}
	if len(rules) < 3 {
		t.Fatalf("got %d rules, want >= 3", len(rules))
	}
}

func TestMineRulesNoBodylessOrHeadlessRules(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var tx []Transaction
	for i := 0; i < 200; i++ {
		items := randomItemset(rng, 5, 10)
		if rng.Float64() < 0.5 {
			items = NewItemset(append(items, 100+rng.IntN(3))...)
		}
		tx = append(tx, items)
	}
	rules := MineRules(tx, testIsHead, permissive(0.01, 0.1))
	for _, r := range rules {
		if len(r.Body) == 0 {
			t.Errorf("bodyless rule: %v", r)
		}
		if len(r.Heads) == 0 {
			t.Errorf("headless rule: %v", r)
		}
		for _, it := range r.Body {
			if testIsHead(it) {
				t.Errorf("fatal item %d in body of %v", it, r)
			}
		}
		for _, h := range r.Heads {
			if !testIsHead(h) {
				t.Errorf("non-fatal head %d in %v", h, r)
			}
		}
		if r.Confidence < 0.1 || r.Confidence > 1 {
			t.Errorf("confidence out of range: %v", r)
		}
		if r.JointCount > r.BodyCount {
			t.Errorf("joint > body count: %v", r)
		}
	}
}

func TestMineRulesEmptyInput(t *testing.T) {
	if rules := MineRules(nil, testIsHead, Config{}); rules != nil {
		t.Fatalf("MineRules(nil) = %v", rules)
	}
}

func TestMineRulesMinersAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 88))
	var tx []Transaction
	for i := 0; i < 500; i++ {
		items := randomItemset(rng, 6, 20)
		if rng.Float64() < 0.4 {
			items = NewItemset(append(items, 100+rng.IntN(4))...)
		}
		tx = append(tx, items)
	}
	ap := MineRules(tx, testIsHead, Config{Miner: &Apriori{}})
	fp := MineRules(tx, testIsHead, Config{Miner: &FPGrowth{}})
	if len(ap) != len(fp) {
		t.Fatalf("apriori %d rules, fpgrowth %d", len(ap), len(fp))
	}
	for i := range ap {
		if !ap[i].Body.Equal(fp[i].Body) || !ap[i].Heads.Equal(fp[i].Heads) ||
			ap[i].Confidence != fp[i].Confidence {
			t.Fatalf("rule %d differs: %v vs %v", i, ap[i], fp[i])
		}
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{Body: NewItemset(1, 3)}
	if !r.Matches(NewItemset(1, 2, 3)) {
		t.Error("superset should match")
	}
	if r.Matches(NewItemset(1, 2)) {
		t.Error("missing body item should not match")
	}
	if r.Matches(NewItemset()) {
		t.Error("empty observation should not match")
	}
}

func TestRuleSetBestMatchPicksHighestConfidence(t *testing.T) {
	rs := NewRuleSet([]Rule{
		{Body: NewItemset(1, 2), Heads: NewItemset(100), Confidence: 0.9},
		{Body: NewItemset(1), Heads: NewItemset(101), Confidence: 0.5},
	})
	r, ok := rs.BestMatch(NewItemset(1, 2, 7))
	if !ok || r.Confidence != 0.9 {
		t.Fatalf("BestMatch = %v, %v; want the 0.9 rule", r, ok)
	}
	r, ok = rs.BestMatch(NewItemset(1, 7))
	if !ok || r.Confidence != 0.5 {
		t.Fatalf("BestMatch = %v, %v; want the 0.5 rule", r, ok)
	}
	if _, ok := rs.BestMatch(NewItemset(7)); ok {
		t.Fatal("BestMatch matched nothing-in-common observation")
	}
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
}

func TestRuleFormatFigure3Style(t *testing.T) {
	names := map[Item]string{1: "nodemapFileError", 100: "nodemapCreateFailure"}
	r := Rule{Body: NewItemset(1), Heads: NewItemset(100), Confidence: 0.947368}
	got := r.Format(func(it Item) string { return names[it] })
	want := "nodemapFileError ==> nodemapCreateFailure: 0.947368"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
	if !strings.Contains(r.String(), "==>") {
		t.Errorf("String = %q", r.String())
	}
}

func BenchmarkMineRules(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 5))
	var tx []Transaction
	for i := 0; i < 3000; i++ {
		items := randomItemset(rng, 8, 60)
		if rng.Float64() < 0.5 {
			items = NewItemset(append(items, 100+rng.IntN(10))...)
		}
		tx = append(tx, items)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineRules(tx, testIsHead, Config{})
	}
}

// TestMineRulesLargeItemIDs mines two bodies whose items differ only
// above 16 bits, 0 and 65536, each preceding head 1 in ten
// transactions. Keys that dropped the high bits merged their counts and
// head sets and lost the second rule; both rules must come out, and
// exactly as they do with 65536 renamed to 2.
func TestMineRulesLargeItemIDs(t *testing.T) {
	build := func(big Item) []Transaction {
		var tx []Transaction
		for range 10 {
			tx = append(tx, NewItemset(0, 1), NewItemset(big, 1))
		}
		tx = append(tx, NewItemset(big), NewItemset(big))
		for range 78 {
			tx = append(tx, NewItemset(7))
		}
		return tx
	}
	isHead := func(it Item) bool { return it == 1 }
	small := MineRules(build(2), isHead, Config{})
	large := MineRules(build(1<<16), isHead, Config{})
	if len(small) != 2 {
		t.Fatalf("renamed control mined %d rules (%v), want 2", len(small), small)
	}
	if len(large) != len(small) {
		t.Fatalf("mined %d rules (%v), want %d like the renamed control (%v)", len(large), large, len(small), small)
	}
	for i := range small {
		want := small[i]
		if want.Body[0] == 2 {
			want.Body = Itemset{1 << 16}
		}
		got := large[i]
		if !got.Body.Equal(want.Body) || !got.Heads.Equal(want.Heads) ||
			got.BodyCount != want.BodyCount || got.JointCount != want.JointCount {
			t.Errorf("rule %d = %v (%d/%d), want %v (%d/%d)", i, &got, got.BodyCount, got.JointCount,
				&want, want.BodyCount, want.JointCount)
		}
	}
}
