// Package topology models the Blue Gene/L packaging and network
// hierarchy (paper §2.1, Gara et al. [9]): racks of two midplanes,
// midplanes of sixteen node cards plus four link cards and a service
// card, and node cards of 32 compute chips and a configurable number
// of I/O chips.
package topology

import (
	"fmt"
	"math/rand/v2"

	"bglpred/internal/raslog"
)

// Config sizes a machine. Zero values select a single-rack BG/L like
// the ANL and SDSC systems (1024 compute nodes).
type Config struct {
	// Racks is the rack count; default 1.
	Racks int
	// NodeCardsPerMidplane is fixed at 16 on real hardware; default 16.
	NodeCardsPerMidplane int
	// ChipsPerNodeCard is fixed at 32 on real hardware; default 32.
	ChipsPerNodeCard int
	// IOChipsPerNodeCard distinguishes I/O-poor ANL (1: 32 I/O nodes per
	// rack) from I/O-rich SDSC (4: 128 I/O nodes per rack). Default 1.
	IOChipsPerNodeCard int
	// LinkCardsPerMidplane is fixed at 4 on real hardware; default 4.
	LinkCardsPerMidplane int
}

func (c Config) withDefaults() Config {
	if c.Racks == 0 {
		c.Racks = 1
	}
	if c.NodeCardsPerMidplane == 0 {
		c.NodeCardsPerMidplane = 16
	}
	if c.ChipsPerNodeCard == 0 {
		c.ChipsPerNodeCard = 32
	}
	if c.IOChipsPerNodeCard == 0 {
		c.IOChipsPerNodeCard = 1
	}
	if c.LinkCardsPerMidplane == 0 {
		c.LinkCardsPerMidplane = 4
	}
	return c
}

// Machine is an immutable machine description.
type Machine struct {
	cfg Config
}

// New builds a machine from the config (zero values defaulted).
func New(cfg Config) *Machine {
	return &Machine{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Midplanes returns every midplane location in the machine.
func (m *Machine) Midplanes() []raslog.Location {
	out := make([]raslog.Location, 0, m.cfg.Racks*2)
	for r := 0; r < m.cfg.Racks; r++ {
		for mp := 0; mp < 2; mp++ {
			out = append(out, raslog.Location{Kind: raslog.KindMidplane, Rack: r, Midplane: mp})
		}
	}
	return out
}

// ChipsPerMidplane returns the compute chips in one midplane (512 on
// real hardware).
func (m *Machine) ChipsPerMidplane() int {
	return m.cfg.NodeCardsPerMidplane * m.cfg.ChipsPerNodeCard
}

// checkMidplane panics when mp is not a midplane of this machine;
// generator bugs should fail loudly.
func (m *Machine) checkMidplane(mp raslog.Location) {
	if mp.Kind != raslog.KindMidplane || mp.Rack < 0 || mp.Rack >= m.cfg.Racks ||
		mp.Midplane < 0 || mp.Midplane > 1 {
		panic(fmt.Sprintf("topology: %v is not a midplane of this machine", mp))
	}
}

// ChipByIndex returns the compute chip with the given index in
// [0, ChipsPerMidplane()) inside midplane mp. Chips are numbered
// card-major: index = card*ChipsPerNodeCard + chip.
func (m *Machine) ChipByIndex(mp raslog.Location, idx int) raslog.Location {
	m.checkMidplane(mp)
	if idx < 0 || idx >= m.ChipsPerMidplane() {
		panic(fmt.Sprintf("topology: chip index %d out of range", idx))
	}
	return raslog.Location{
		Kind:     raslog.KindComputeChip,
		Rack:     mp.Rack,
		Midplane: mp.Midplane,
		Card:     idx / m.cfg.ChipsPerNodeCard,
		Chip:     idx % m.cfg.ChipsPerNodeCard,
	}
}

// RandomNodeCard draws a uniform node card within midplane mp.
func (m *Machine) RandomNodeCard(rng *rand.Rand, mp raslog.Location) raslog.Location {
	m.checkMidplane(mp)
	return raslog.Location{
		Kind:     raslog.KindNodeCard,
		Rack:     mp.Rack,
		Midplane: mp.Midplane,
		Card:     rng.IntN(m.cfg.NodeCardsPerMidplane),
	}
}

// RandomLinkCard draws a uniform link card within midplane mp.
func (m *Machine) RandomLinkCard(rng *rand.Rand, mp raslog.Location) raslog.Location {
	m.checkMidplane(mp)
	return raslog.Location{
		Kind:     raslog.KindLinkCard,
		Rack:     mp.Rack,
		Midplane: mp.Midplane,
		Card:     rng.IntN(m.cfg.LinkCardsPerMidplane),
	}
}

// ServiceCard returns midplane mp's service card.
func (m *Machine) ServiceCard(mp raslog.Location) raslog.Location {
	m.checkMidplane(mp)
	return raslog.Location{Kind: raslog.KindServiceCard, Rack: mp.Rack, Midplane: mp.Midplane}
}
