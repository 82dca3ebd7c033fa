// Package cluster lifts the in-process rack/midplane sharding of
// internal/serve across processes: a Gate (cmd/bglgate) accepts the
// same POST /v1/ingest traffic a single bglserved does, routes each
// line to one of N bglserved backends over a consistent-hash ring
// keyed by the record's rack/midplane location, and re-exposes the
// cluster as if it were one node — merged GET /v1/alerts, a fan-in
// GET /v1/alerts/stream, a GET /v1/cluster/status roll-up, and a
// rolling cluster-wide POST /v1/model/reload.
//
// The partition invariant is the same one the in-process sharder
// keeps: all evidence for one midplane — the granularity jobs are
// scheduled at — lands on one engine. A backend outage does not break
// it: lines keyed to an unreachable backend are parked, in order, in
// a bounded per-backend replay buffer and re-delivered on recovery,
// rather than being rerouted into another backend's engine (which
// would pollute its dedup/window state) or dropped. Membership
// changes — a backend joining or leaving the configured set — go
// through the ring, which remaps only the keys the leaver owned.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"bglpred/internal/raslog"
)

// DefaultVNodes is the virtual-node count per ring member: enough
// that member key shares stay within a few percent of uniform while
// keeping ring rebuilds trivially cheap for single-digit clusters.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring: members (backend URLs)
// each project VNodes points onto a 64-bit circle, and a key is owned
// by the member of the first point at or clockwise of the key's hash.
// Immutability keeps membership changes easy to reason about — With
// and Without return a new ring, and only keys owned by the affected
// member change owners.
type Ring struct {
	vnodes  int
	members []string
	points  []ringPoint
	// memo holds ownerIndexAt's answer for every routing key a
	// real machine emits — per rack below ownerMemoRacks the rack key
	// and its two midplane keys, then the unknown-location key — worked
	// out once here so the per-record lookup is an index, not a hash
	// and a binary search. Built with the ring, so it shares the ring's
	// immutability; keys outside it take the computed path.
	memo []int32
}

// ownerMemoRacks bounds the memo: twice the 64 racks of the largest
// Blue Gene/L installation.
const ownerMemoRacks = 128

type ringPoint struct {
	hash  uint64
	owner int // index into members
}

// NewRing builds a ring over members (deduplicated, sorted) with
// vnodes virtual nodes per member (≤0 selects DefaultVNodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, vnodes*len(uniq))
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(m + "#" + strconv.Itoa(v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between members resolve by member order so
		// the ring stays deterministic regardless of build order.
		return r.points[a].owner < r.points[b].owner
	})
	if len(r.points) > 0 {
		r.memo = make([]int32, 0, 3*ownerMemoRacks+1)
		for rack := 0; rack < ownerMemoRacks; rack++ {
			r.memo = append(r.memo,
				int32(r.locationOwner(raslog.Location{Kind: raslog.KindRack, Rack: rack})),
				int32(r.locationOwner(raslog.Location{Kind: raslog.KindMidplane, Rack: rack, Midplane: 0})),
				int32(r.locationOwner(raslog.Location{Kind: raslog.KindMidplane, Rack: rack, Midplane: 1})))
		}
		r.memo = append(r.memo, int32(r.locationOwner(raslog.Location{})))
	}
	return r
}

// Members returns the ring membership, sorted. The slice is shared;
// do not mutate.
func (r *Ring) Members() []string { return r.members }

// VNodes reports the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	i := r.OwnerIndex(key)
	if i < 0 {
		return ""
	}
	return r.members[i]
}

// OwnerIndex returns the index (into Members) of the member owning
// key, or -1 on an empty ring.
func (r *Ring) OwnerIndex(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.ownerOfHash(hashKey(key))
}

// OwnerIndexLocation returns OwnerIndex(LocationKey(loc)); it is
// ownerIndexAt taking the location by value.
func (r *Ring) OwnerIndexLocation(loc raslog.Location) int { return r.ownerIndexAt(&loc) }

// ownerIndexAt returns OwnerIndex(LocationKey(*loc)) without building
// the key string or, for the keys in the memo, hashing at all — the
// gate's wire pass-through path calls this once per peeked record,
// where either would dominate the routing cost, on the location the
// peek left in its scratch.
func (r *Ring) ownerIndexAt(loc *raslog.Location) int {
	if len(r.points) == 0 {
		return -1
	}
	if loc.Kind == raslog.KindUnknown {
		return int(r.memo[3*ownerMemoRacks])
	}
	if uint(loc.Rack) < ownerMemoRacks { // a negative rack reads as huge
		if loc.Kind == raslog.KindRack {
			return int(r.memo[3*loc.Rack])
		}
		if uint(loc.Midplane) < 2 { // every finer kind routes by its midplane
			return int(r.memo[3*loc.Rack+1+loc.Midplane])
		}
	}
	return r.locationOwner(loc.MidplaneOf())
}

// locationOwner resolves a midplane-level location (MidplaneOf's
// output) on a non-empty ring by hashing exactly the bytes LocationKey
// would produce, so the two always agree.
func (r *Ring) locationOwner(mp raslog.Location) int {
	var buf [24]byte
	return r.ownerOfHash(hashKey(mp.AppendTo(buf[:0])))
}

// ownerOfHash resolves a key hash to its owning member; the ring must
// be non-empty.
func (r *Ring) ownerOfHash(h uint64) int {
	// sort.Search without the closure: the first point at or past h.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap past the highest point to the lowest
	}
	return r.points[lo].owner
}

// With returns a new ring with member added (a no-op copy if already
// present). Only keys that fall into the new member's arcs change
// owners.
func (r *Ring) With(member string) *Ring {
	return NewRing(append(append([]string(nil), r.members...), member), r.vnodes)
}

// Without returns a new ring with member removed. Only keys the
// removed member owned change owners; everything else maps as before
// — the minimal-remapping property the ring unit tests pin.
func (r *Ring) Without(member string) *Ring {
	keep := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			keep = append(keep, m)
		}
	}
	return NewRing(keep, r.vnodes)
}

// LocationKey returns the routing key for a record's location: its
// rack/midplane prefix, exactly the granularity the in-process
// sharder routes by (serve.Config.Shards), so a gate-routed cluster
// partitions the event stream the same way a single sharded node
// does. Unknown locations share one key.
func LocationKey(loc raslog.Location) string {
	mp := loc.MidplaneOf()
	if mp.Kind == raslog.KindUnknown {
		return "?"
	}
	return mp.String()
}

// hashKey is FNV-1a over the key text, pushed through a 64-bit
// avalanche finalizer. Raw FNV-1a is too weak for ring points — vnode
// labels differ in a trailing counter and their hashes stay
// correlated, skewing member shares far past the ±15% the ring tests
// pin — and the finalizer (the murmur3 fmix64 constants) spreads
// those neighbors across the whole circle. Determinism across
// processes is what matters here, not speed: the gate and any test
// reference must agree byte-for-byte.
func hashKey[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// memberIndex resolves a member URL to its ring index, for callers
// that keep per-member state in Members order.
func (r *Ring) memberIndex(member string) (int, error) {
	for i, m := range r.members {
		if m == member {
			return i, nil
		}
	}
	return -1, fmt.Errorf("cluster: %q is not a ring member", member)
}
