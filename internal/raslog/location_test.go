package raslog

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestLocationStringReadRoundTrip(t *testing.T) {
	cases := []Location{
		{Kind: KindRack, Rack: 0},
		{Kind: KindRack, Rack: 31},
		{Kind: KindMidplane, Rack: 7, Midplane: 1},
		{Kind: KindNodeCard, Rack: 0, Midplane: 0, Card: 15},
		{Kind: KindComputeChip, Rack: 3, Midplane: 1, Card: 4, Chip: 31},
		{Kind: KindIONode, Rack: 3, Midplane: 0, Card: 9, Chip: 1},
		{Kind: KindLinkCard, Rack: 12, Midplane: 1, Card: 3},
		{Kind: KindServiceCard, Rack: 2, Midplane: 0},
		{Kind: KindIONode, Rack: wireMaxLocField, Midplane: 1, Card: wireMaxLocField, Chip: wireMaxLocField},
		{Kind: KindLinkCard, Rack: wireMaxLocField, Midplane: 1, Card: wireMaxLocField},
	}
	for _, loc := range cases {
		text := loc.String()
		got, err := readLocation(text)
		if err != nil {
			t.Fatalf("read %q: %v", text, err)
		}
		if got != loc {
			t.Errorf("round trip %q: got %+v, want %+v", text, got, loc)
		}
	}
}

func TestReaderLocationExamples(t *testing.T) {
	cases := map[string]Location{
		"R00":            {Kind: KindRack},
		"R07-M1":         {Kind: KindMidplane, Rack: 7, Midplane: 1},
		"R07-M1-N04":     {Kind: KindNodeCard, Rack: 7, Midplane: 1, Card: 4},
		"R07-M1-N04-C32": {Kind: KindComputeChip, Rack: 7, Midplane: 1, Card: 4, Chip: 32},
		"R07-M1-N04-I00": {Kind: KindIONode, Rack: 7, Midplane: 1, Card: 4},
		"R07-M1-L2":      {Kind: KindLinkCard, Rack: 7, Midplane: 1, Card: 2},
		"R07-M1-S":       {Kind: KindServiceCard, Rack: 7, Midplane: 1},
		"R2147483648":    {Kind: KindRack, Rack: 1 << 31},
		"?":              {},
	}
	for text, want := range cases {
		got, err := readLocation(text)
		if err != nil {
			t.Fatalf("read %q: %v", text, err)
		}
		if got != want {
			t.Errorf("read %q as %+v, want %+v", text, got, want)
		}
	}
}

// TestReaderRefusesMalformedLocations holds the Reader to refusing
// locations outside the grammar, in a spelling no writer emits, or
// with a number past what the writers carry, naming the field.
func TestReaderRefusesMalformedLocations(t *testing.T) {
	bad := []string{
		"X00", "R", "Rxx", "R00-M2", "R00-MA", "R00-M0-X1",
		"R00-M0-N04-C32-Z9", "R00-M0-S-C1", "R00-M0-L1-C2",
		"R00-M0-N04-Q1", "R-1", "R00-M0-Ncc", "R00-M0-N04-C", "R00-M0-",
		"", "R1", "R+07", "R01-M0-N4", "R01-M0-N04-C3", "R2147483649", "R4294967296-M0",
	}
	for _, text := range bad {
		_, err := readLocation(text)
		if want := "raslog: malformed location " + strconv.Quote(text); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("read %q: error %v, want one ending %q", text, err, want)
		}
	}
}

func TestLocationMidplaneOf(t *testing.T) {
	chip := Location{Kind: KindComputeChip, Rack: 5, Midplane: 1, Card: 3, Chip: 7}
	mp := chip.MidplaneOf()
	want := Location{Kind: KindMidplane, Rack: 5, Midplane: 1}
	if mp != want {
		t.Errorf("MidplaneOf = %+v, want %+v", mp, want)
	}
	rack := Location{Kind: KindRack, Rack: 5}
	if rack.MidplaneOf() != rack {
		t.Errorf("rack MidplaneOf should be identity")
	}
	var unknown Location
	if unknown.MidplaneOf() != unknown {
		t.Errorf("unknown MidplaneOf should be identity")
	}
}

func TestLocationContains(t *testing.T) {
	rack := Location{Kind: KindRack, Rack: 1}
	mp := Location{Kind: KindMidplane, Rack: 1, Midplane: 0}
	otherMP := Location{Kind: KindMidplane, Rack: 1, Midplane: 1}
	nc := Location{Kind: KindNodeCard, Rack: 1, Midplane: 0, Card: 2}
	chip := Location{Kind: KindComputeChip, Rack: 1, Midplane: 0, Card: 2, Chip: 9}
	io := Location{Kind: KindIONode, Rack: 1, Midplane: 0, Card: 2, Chip: 0}
	lc := Location{Kind: KindLinkCard, Rack: 1, Midplane: 0, Card: 1}

	tests := []struct {
		outer, inner Location
		want         bool
	}{
		{rack, mp, true},
		{rack, chip, true},
		{mp, nc, true},
		{mp, lc, true},
		{mp, otherMP, false},
		{nc, chip, true},
		{nc, io, true},
		{nc, lc, false},
		{chip, chip, true},
		{chip, nc, false},
		{Location{}, rack, false},
		{rack, Location{}, false},
		{Location{Kind: KindRack, Rack: 2}, mp, false},
	}
	for _, tc := range tests {
		if got := tc.outer.Contains(tc.inner); got != tc.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", tc.outer, tc.inner, got, tc.want)
		}
	}
}

// randomLocation draws a structurally valid location.
func randomLocation(rng *rand.Rand) Location {
	kinds := []LocationKind{KindRack, KindMidplane, KindNodeCard,
		KindComputeChip, KindIONode, KindLinkCard, KindServiceCard}
	loc := Location{Kind: kinds[rng.IntN(len(kinds))], Rack: rng.IntN(64)}
	if loc.Kind != KindRack {
		loc.Midplane = rng.IntN(2)
	}
	switch loc.Kind {
	case KindNodeCard, KindComputeChip, KindIONode:
		loc.Card = rng.IntN(16)
	case KindLinkCard:
		loc.Card = rng.IntN(4)
	}
	switch loc.Kind {
	case KindComputeChip:
		loc.Chip = rng.IntN(32)
	case KindIONode:
		loc.Chip = rng.IntN(2)
	}
	return loc
}

func TestLocationRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func() bool {
		loc := randomLocation(rng)
		got, err := readLocation(loc.String())
		return err == nil && got == loc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLocationContainsIsReflexiveOnKnown(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	f := func() bool {
		loc := randomLocation(rng)
		return loc.Contains(loc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
