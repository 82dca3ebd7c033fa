package raslog

import (
	"fmt"
	"strconv"
)

// LocationKind identifies which hardware level of the Blue Gene/L
// packaging hierarchy a LOCATION string names.
type LocationKind int

// Location kinds, from coarse to fine.
const (
	KindUnknown LocationKind = iota
	KindRack
	KindMidplane
	KindNodeCard
	KindComputeChip
	KindIONode
	KindLinkCard
	KindServiceCard
)

var kindNames = map[LocationKind]string{
	KindUnknown:     "unknown",
	KindRack:        "rack",
	KindMidplane:    "midplane",
	KindNodeCard:    "node-card",
	KindComputeChip: "compute-chip",
	KindIONode:      "io-node",
	KindLinkCard:    "link-card",
	KindServiceCard: "service-card",
}

// String returns a human-readable name for the kind.
func (k LocationKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("LocationKind(%d)", int(k))
}

// Location is a parsed LOCATION attribute. It names a place in the
// BG/L packaging hierarchy:
//
//	R07            rack 7
//	R07-M1         midplane 1 of rack 7
//	R07-M1-N04     node card 4 of that midplane
//	R07-M1-N04-C32 compute chip 32 on that node card
//	R07-M1-N04-I00 I/O chip 0 on that node card
//	R07-M1-L2      link card 2 of that midplane
//	R07-M1-S       the midplane's service card
//
// Fields below the named Kind are zero; the writers refuse a location
// with any other value there.
type Location struct {
	Kind     LocationKind
	Rack     int
	Midplane int // 0 or 1
	Card     int // node card (0-15) or link card (0-3) index
	Chip     int // compute chip (0-31) or I/O chip index on a node card
}

// String formats the location in the BG/L LOCATION grammar shown above.
// Unknown locations format as "?".
func (l Location) String() string {
	var buf [24]byte
	return string(l.AppendTo(buf[:0]))
}

// AppendTo appends the String form of the location to dst: the
// allocation-free spelling the text Writer encodes through.
func (l Location) AppendTo(dst []byte) []byte {
	if l.Kind < KindRack || l.Kind > KindServiceCard {
		return append(dst, '?')
	}
	dst = appendPad2(append(dst, 'R'), l.Rack)
	if l.Kind == KindRack {
		return dst
	}
	dst = strconv.AppendInt(append(dst, "-M"...), int64(l.Midplane), 10)
	switch l.Kind {
	case KindNodeCard, KindComputeChip, KindIONode:
		dst = appendPad2(append(dst, "-N"...), l.Card)
		switch l.Kind {
		case KindComputeChip:
			dst = appendPad2(append(dst, "-C"...), l.Chip)
		case KindIONode:
			dst = appendPad2(append(dst, "-I"...), l.Chip)
		}
	case KindLinkCard:
		dst = strconv.AppendInt(append(dst, "-L"...), int64(l.Card), 10)
	case KindServiceCard:
		dst = append(dst, "-S"...)
	}
	return dst
}

// depth is how many of a location's rack, midplane, card and chip its
// kind names, or -1 for a kind that is none of the constants.
func (k LocationKind) depth() int {
	switch k {
	case KindUnknown:
		return 0
	case KindRack:
		return 1
	case KindMidplane, KindServiceCard:
		return 2
	case KindNodeCard, KindLinkCard:
		return 3
	case KindComputeChip, KindIONode:
		return 4
	}
	return -1
}

// encodable reports whether both writers carry l so that it reads
// back equal: a known kind, every number from 0 to wireMaxLocField, a
// midplane of 0 or 1, and zero in each field below the kind, which
// neither encoding spells.
func encodable(l Location) bool {
	depth := l.Kind.depth()
	for i, n := range [4]int{l.Rack, l.Midplane, l.Card, l.Chip} {
		if uint(n) > wireMaxLocField || i >= depth && n != 0 {
			return false
		}
	}
	return depth >= 0 && l.Midplane <= 1
}

// appendPad2 appends n as fmt's %02d would.
func appendPad2(dst []byte, n int) []byte {
	if 0 <= n && n < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// MidplaneOf returns the midplane-level prefix of the location, which is
// the granularity jobs are scheduled at. Rack-level and unknown
// locations are returned unchanged.
func (l Location) MidplaneOf() Location {
	switch l.Kind {
	case KindUnknown, KindRack:
		return l
	default:
		return Location{Kind: KindMidplane, Rack: l.Rack, Midplane: l.Midplane}
	}
}

// Contains reports whether the subtree of the packaging hierarchy rooted
// at l includes other. A location contains itself. Unknown locations
// contain nothing and are contained by nothing.
func (l Location) Contains(other Location) bool {
	if l.Kind == KindUnknown || other.Kind == KindUnknown {
		return false
	}
	if l.Rack != other.Rack {
		return false
	}
	switch l.Kind {
	case KindRack:
		return true
	case KindMidplane:
		return l.Midplane == other.Midplane
	case KindNodeCard:
		if other.Kind != KindNodeCard && other.Kind != KindComputeChip && other.Kind != KindIONode {
			return false
		}
		return l.Midplane == other.Midplane && l.Card == other.Card
	default:
		return l == other
	}
}
