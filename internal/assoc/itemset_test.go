package assoc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewItemsetSortsAndDedupes(t *testing.T) {
	s := NewItemset(5, 1, 3, 1, 5, 5)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewItemset = %v, want %v", s, want)
	}
	if len(NewItemset()) != 0 {
		t.Error("empty NewItemset should be empty")
	}
}

func TestItemsetContains(t *testing.T) {
	s := NewItemset(2, 4, 6)
	for _, it := range []Item{2, 4, 6} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true", it)
		}
	}
}

func TestItemsetContainsAll(t *testing.T) {
	s := NewItemset(1, 2, 3, 4, 5)
	cases := []struct {
		sub  Itemset
		want bool
	}{
		{NewItemset(), true},
		{NewItemset(1), true},
		{NewItemset(1, 5), true},
		{NewItemset(2, 3, 4), true},
		{NewItemset(1, 2, 3, 4, 5), true},
		{NewItemset(0), false},
		{NewItemset(1, 6), false},
		{NewItemset(1, 2, 3, 4, 5, 6), false},
	}
	for _, tc := range cases {
		if got := s.ContainsAll(tc.sub); got != tc.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", tc.sub, got, tc.want)
		}
	}
}

func TestItemsetKeyUnique(t *testing.T) {
	sets := []Itemset{
		NewItemset(), NewItemset(1), NewItemset(2), NewItemset(1, 2),
		NewItemset(1, 2, 3), NewItemset(258), NewItemset(1, 258),
		// 258 = 1 + 257; the two-byte encoding must not collide with {2,1}.
		NewItemset(2, 256),
	}
	seen := map[string]Itemset{}
	for _, s := range sets {
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("key collision: %v and %v", prev, s)
		}
		seen[s.Key()] = s
	}
}

func TestItemsetKeyEqualityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	f := func() bool {
		a := randomItemset(rng, 6, 101)
		b := randomItemset(rng, 6, 101)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func randomItemset(rng *rand.Rand, maxLen, universe int) Itemset {
	n := rng.IntN(maxLen + 1)
	items := make([]Item, n)
	for i := range items {
		items[i] = rng.IntN(universe)
	}
	return NewItemset(items...)
}

func TestItemsetClone(t *testing.T) {
	s := NewItemset(1, 2)
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestItemsetString(t *testing.T) {
	if got := NewItemset(3, 1).String(); got != "{1 3}" {
		t.Errorf("String = %q, want {1 3}", got)
	}
	if got := NewItemset().String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

func TestSupportCount(t *testing.T) {
	cases := []struct {
		sup  float64
		n    int
		want int
	}{
		{0.04, 100, 4},
		{0.04, 99, 4},   // ceil(3.96)
		{0.04, 101, 5},  // ceil(4.04)
		{0, 1000, 1},    // floor at 1
		{0.001, 100, 1}, // ceil(0.1) -> 1
		{1, 50, 50},     // everything
		{0.5, 3, 2},     // ceil(1.5)
	}
	for _, tc := range cases {
		if got := SupportCount(tc.sup, tc.n); got != tc.want {
			t.Errorf("SupportCount(%v, %d) = %d, want %d", tc.sup, tc.n, got, tc.want)
		}
	}
}

// TestItemsetKeyLargeItems: items at and past 16 bits, which a
// two-byte key aliased onto small ones ({65536} onto {0}), keep keys of
// their own.
func TestItemsetKeyLargeItems(t *testing.T) {
	sets := []Itemset{
		NewItemset(0), NewItemset(1 << 16), NewItemset(0, 1), NewItemset(1, 1<<16),
		NewItemset(0xfffe), NewItemset(0xffff), NewItemset(0, 0xffff), NewItemset(1<<40, 2),
		NewItemset(0xffff, 0xffff+1), NewItemset(255, 255<<8+255),
	}
	seen := map[string]Itemset{}
	for _, s := range sets {
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("key collision: %v and %v", prev, s)
		}
		seen[s.Key()] = s
	}
}
