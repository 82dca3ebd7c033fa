package cluster

import (
	"fmt"
	"testing"

	"bglpred/internal/raslog"
)

// ringMembers is a realistic 4-backend membership.
var ringMembers = []string{
	"http://node-a:8650",
	"http://node-b:8650",
	"http://node-c:8650",
	"http://node-d:8650",
}

// syntheticKeys generates n distinct routing keys shaped like the real
// ones (midplane prefixes), plus the unknown-location key.
func syntheticKeys(n int) []string {
	keys := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("R%02d-M%d", i/2%100, i%2)+fmt.Sprintf("/%d", i))
	}
	return append(keys, "?")
}

// TestRingDistribution pins the virtual-node count's load guarantee:
// at DefaultVNodes (128) each of 4 members owns its fair share of a
// large key population within ±15%.
func TestRingDistribution(t *testing.T) {
	r := NewRing(ringMembers, DefaultVNodes)
	keys := syntheticKeys(40000)
	counts := make([]int, len(ringMembers))
	for _, k := range keys {
		i := r.OwnerIndex(k)
		if i < 0 {
			t.Fatalf("OwnerIndex(%q) = -1 on a populated ring", k)
		}
		counts[i]++
	}
	fair := float64(len(keys)) / float64(len(ringMembers))
	for i, c := range counts {
		dev := (float64(c) - fair) / fair
		t.Logf("member %d (%s): %d keys (%+.1f%%)", i, r.Members()[i], c, dev*100)
		if dev > 0.15 || dev < -0.15 {
			t.Errorf("member %s owns %d of %d keys, %.1f%% off the fair share %.0f (tolerance ±15%%)",
				r.Members()[i], c, len(keys), dev*100, fair)
		}
	}
}

// TestRingMinimalRemapping pins the consistent-hashing contract: when
// one of N members leaves, only the keys it owned change owners —
// nothing else moves — and those are about 1/N of the population.
func TestRingMinimalRemapping(t *testing.T) {
	r := NewRing(ringMembers, DefaultVNodes)
	keys := syntheticKeys(40000)
	leaver := ringMembers[2]
	smaller := r.Without(leaver)
	if got := len(smaller.Members()); got != len(ringMembers)-1 {
		t.Fatalf("Without left %d members, want %d", got, len(ringMembers)-1)
	}

	remapped := 0
	for _, k := range keys {
		before, after := r.Owner(k), smaller.Owner(k)
		if before == leaver {
			remapped++
			if after == leaver {
				t.Fatalf("key %q still maps to the removed member", k)
			}
			continue
		}
		if after != before {
			t.Fatalf("key %q moved %s -> %s though its owner never left (remapping must be minimal)",
				k, before, after)
		}
	}
	// The remapped set is exactly the leaver's share: about 1/N, and
	// never more than the ±15% distribution tolerance above fair.
	frac := float64(remapped) / float64(len(keys))
	limit := 1.15 / float64(len(ringMembers))
	t.Logf("removing 1 of %d members remapped %d/%d keys (%.1f%%)",
		len(ringMembers), remapped, len(keys), frac*100)
	if remapped == 0 {
		t.Fatal("removing a member remapped nothing; the ring is not covering it")
	}
	if frac > limit {
		t.Errorf("removing 1 of %d members remapped %.1f%% of keys, want <= %.1f%%",
			len(ringMembers), frac*100, limit*100)
	}
}

// TestRingJoinInverse pins that With is Without's inverse: re-adding
// the member restores exactly the original assignment.
func TestRingJoinInverse(t *testing.T) {
	r := NewRing(ringMembers, DefaultVNodes)
	rejoined := r.Without(ringMembers[1]).With(ringMembers[1])
	for _, k := range syntheticKeys(5000) {
		if a, b := r.Owner(k), rejoined.Owner(k); a != b {
			t.Fatalf("key %q: original owner %s, after leave+rejoin %s", k, a, b)
		}
	}
}

// TestRingBuildOrderIrrelevant pins that membership order does not
// change the assignment (the ring sorts members).
func TestRingBuildOrderIrrelevant(t *testing.T) {
	r1 := NewRing(ringMembers, DefaultVNodes)
	shuffled := []string{ringMembers[3], ringMembers[0], ringMembers[2], ringMembers[1]}
	r2 := NewRing(shuffled, DefaultVNodes)
	for _, k := range syntheticKeys(2000) {
		if a, b := r1.Owner(k), r2.Owner(k); a != b {
			t.Fatalf("key %q: owner %s with sorted members, %s with shuffled", k, a, b)
		}
	}
}

// TestRingEdges covers the degenerate shapes.
func TestRingEdges(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.OwnerIndex("x"); got != -1 {
		t.Fatalf("empty ring OwnerIndex = %d, want -1", got)
	}
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	single := NewRing([]string{"http://only:1"}, 8)
	for _, k := range []string{"a", "b", "?"} {
		if got := single.Owner(k); got != "http://only:1" {
			t.Fatalf("single-member ring sent %q to %q", k, got)
		}
	}
	dup := NewRing([]string{"http://a:1", "http://a:1"}, 8)
	if got := len(dup.Members()); got != 1 {
		t.Fatalf("duplicate members kept: %d", got)
	}
	if _, err := dup.memberIndex("http://missing:1"); err == nil {
		t.Fatal("memberIndex on a non-member must error")
	}
}

// TestLocationKey pins the routing granularity: everything below a
// midplane collapses to the midplane, racks stay rack-level, and
// unknown locations share one key — mirroring serve's shardFor.
func TestLocationKey(t *testing.T) {
	mp := LocationKey(raslog.Location{Kind: raslog.KindMidplane, Rack: 12, Midplane: 1})
	sub := LocationKey(raslog.Location{Kind: raslog.KindNodeCard, Rack: 12, Midplane: 1, Card: 4})
	if mp != sub {
		t.Fatalf("node card keyed %q, its midplane %q; all evidence for one midplane must share a key", sub, mp)
	}
	other := LocationKey(raslog.Location{Kind: raslog.KindMidplane, Rack: 12})
	if other == mp {
		t.Fatalf("distinct midplanes share key %q", mp)
	}
	if got := LocationKey(raslog.Location{}); got != "?" {
		t.Fatalf("unknown location keyed %q, want \"?\"", got)
	}
}
