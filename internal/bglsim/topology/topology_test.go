package topology

import (
	"math/rand/v2"
	"testing"

	"bglpred/internal/raslog"
)

// computeNodes and ioNodes are the machine's compute and I/O chip
// counts.
func computeNodes(m *Machine) int {
	c := m.Config()
	return c.Racks * 2 * c.NodeCardsPerMidplane * c.ChipsPerNodeCard
}

func ioNodes(m *Machine) int {
	c := m.Config()
	return c.Racks * 2 * c.NodeCardsPerMidplane * c.IOChipsPerNodeCard
}

func TestDefaultsMatchSingleRackBGL(t *testing.T) {
	m := New(Config{})
	if got := computeNodes(m); got != 1024 {
		t.Errorf("compute nodes = %d, want 1024", got)
	}
	if got := ioNodes(m); got != 32 {
		t.Errorf("I/O nodes = %d, want 32 (ANL I/O-poor default)", got)
	}
	if got := m.ChipsPerMidplane(); got != 512 {
		t.Errorf("ChipsPerMidplane = %d, want 512", got)
	}
	if got := len(m.Midplanes()); got != 2 {
		t.Errorf("midplanes = %d, want 2", got)
	}
}

func TestSDSCIORichConfig(t *testing.T) {
	m := New(Config{IOChipsPerNodeCard: 4})
	if got := ioNodes(m); got != 128 {
		t.Errorf("I/O nodes = %d, want 128 (SDSC I/O-rich)", got)
	}
}

func TestChipIndexRoundTrip(t *testing.T) {
	m := New(Config{})
	mp := raslog.Location{Kind: raslog.KindMidplane, Rack: 0, Midplane: 1}
	for idx := 0; idx < m.ChipsPerMidplane(); idx++ {
		chip := m.ChipByIndex(mp, idx)
		if chip.Kind != raslog.KindComputeChip {
			t.Fatalf("ChipByIndex(%d).Kind = %v", idx, chip.Kind)
		}
		if got := chip.Card*m.Config().ChipsPerNodeCard + chip.Chip; got != idx {
			t.Fatalf("round trip %d -> %d", idx, got)
		}
		if !mp.Contains(chip) {
			t.Fatalf("chip %v not in midplane %v", chip, mp)
		}
	}
}

func TestChipByIndexPanicsOutOfRange(t *testing.T) {
	m := New(Config{})
	mp := m.Midplanes()[0]
	for _, idx := range []int{-1, 512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChipByIndex(%d) did not panic", idx)
				}
			}()
			m.ChipByIndex(mp, idx)
		}()
	}
}

func TestCheckMidplanePanicsOnBadInput(t *testing.T) {
	m := New(Config{})
	bad := []raslog.Location{
		{Kind: raslog.KindRack},
		{Kind: raslog.KindMidplane, Rack: 5}, // only 1 rack
		{},
	}
	for _, loc := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomNodeCard(%v) did not panic", loc)
				}
			}()
			m.RandomNodeCard(rand.New(rand.NewPCG(1, 1)), loc)
		}()
	}
}

func TestRandomLocationsStayInMidplane(t *testing.T) {
	m := New(Config{IOChipsPerNodeCard: 4})
	rng := rand.New(rand.NewPCG(3, 3))
	mp := m.Midplanes()[1]
	for i := 0; i < 200; i++ {
		if loc := m.RandomNodeCard(rng, mp); !mp.Contains(loc) {
			t.Fatalf("RandomNodeCard %v escaped %v", loc, mp)
		}
		if loc := m.RandomLinkCard(rng, mp); !mp.Contains(loc) || loc.Card >= 4 {
			t.Fatalf("RandomLinkCard %v bad", loc)
		}
	}
	sc := m.ServiceCard(mp)
	if sc.Kind != raslog.KindServiceCard || !mp.Contains(sc) {
		t.Fatalf("ServiceCard = %v", sc)
	}
}

func TestConfigEcho(t *testing.T) {
	m := New(Config{Racks: 2})
	cfg := m.Config()
	if cfg.Racks != 2 || cfg.NodeCardsPerMidplane != 16 || cfg.ChipsPerNodeCard != 32 ||
		cfg.IOChipsPerNodeCard != 1 || cfg.LinkCardsPerMidplane != 4 {
		t.Fatalf("defaulted config = %+v", cfg)
	}
	if computeNodes(m) != 2048 {
		t.Fatalf("2-rack compute nodes = %d, want 2048", computeNodes(m))
	}
}
