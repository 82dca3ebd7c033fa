// Package faultinject is a deterministic, seedable fault-injection
// harness for the serving and lifecycle layers: it lets a chaos test
// (or an operator drill) make a shard panic after a batch, slow a
// shard down until requests waiting for it shed, corrupt an
// ingest payload, or fail a checkpoint write with ENOSPC — all on a
// fixed schedule reproducible from a seed, with zero cost on the
// production path.
//
// Two pieces:
//
//   - Injector: a registry of named fault Points. Code under test
//     calls Fire (or Delay) at each point; an armed plan decides —
//     deterministically, from hit counters and a seeded PRNG — whether
//     the fault fires. A nil *Injector is the production configuration:
//     every method is a nil-receiver no-op, so fault points compile to
//     a pointer compare and nothing else.
//   - Fs: middleware over ledger.FS, the one filesystem seam of the
//     durable state, injecting filesystem faults (ENOSPC, short
//     writes, fsync errors, failed renames and truncates, read-side
//     truncation and bit corruption) into model artifacts,
//     checkpoints and the audit ledger alike.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"
)

// Point names one fault site. The constants below are the points the
// serving and lifecycle layers consult; tests may mint their own.
type Point string

const (
	// ShardPanic panics a serve shard at the end of a batch, after its
	// snapshot update, exercising the restart-from-snapshot path.
	ShardPanic Point = "serve.shard.panic"
	// ShardSlow stalls a serve shard's batch (Plan.Delay) while it holds
	// the shard's lock, so other requests for that shard wait into the
	// load-shedding and deadline paths.
	ShardSlow Point = "serve.shard.slow"
	// IngestCorrupt marks a decoded ingest record as corrupt, routing
	// it to the quarantine ring instead of its shard.
	IngestCorrupt Point = "serve.ingest.corrupt"
	// GateForwardDown fails a bglgate→backend ingest forward before any
	// bytes leave the gate, modeling a backend that times out; the
	// batch lands in the backend's replay buffer instead of vanishing.
	GateForwardDown Point = "gate.forward.down"
	// GateForwardPartial truncates a backend's ingest reply after the
	// status line, modeling a connection cut mid-response (the batch
	// was delivered; only the acknowledgment was lost).
	GateForwardPartial Point = "gate.forward.partial"
	// GateProbeFlap fails one bglgate health probe against a healthy
	// backend, modeling flapping health checks; routing must buffer
	// and recover without losing or reordering lines.
	GateProbeFlap Point = "gate.probe.flap"
	// FsWrite fails a write (ENOSPC, optionally after a short write),
	// FsSync an fsync, FsRename a commit rename, FsLink a hard link (a
	// model's versioned copy), FsTruncate the ledger's
	// rollback truncate, FsRead a whole-file read; FsCorrupt mutates
	// read bytes instead of failing the read (truncation or a bit flip
	// — the SHA-mismatch path).
	FsWrite    Point = "fs.write"
	FsSync     Point = "fs.sync"
	FsRename   Point = "fs.rename"
	FsLink     Point = "fs.link"
	FsTruncate Point = "fs.truncate"
	FsRead     Point = "fs.read"
	FsCorrupt  Point = "fs.corrupt"
)

// ErrInjected is the default error injected faults return; plans may
// override it (e.g. with syscall.ENOSPC) via Plan.Err.
var ErrInjected = errors.New("faultinject: injected fault")

// ENOSPC is syscall.ENOSPC, re-exported so tests need not import
// syscall.
var ENOSPC error = syscall.ENOSPC

// Panic is the value an injected panic throws, so a recover can tell
// an injected crash from a real bug while both take the same recovery
// path.
type Panic struct{ Point Point }

func (p Panic) String() string { return fmt.Sprintf("faultinject: injected panic at %s", p.Point) }

// CorruptMode selects how Fs mutates read bytes at FsCorrupt.
type CorruptMode int

const (
	// Truncate drops the second half of the file.
	Truncate CorruptMode = iota + 1
	// FlipByte XORs one payload byte, leaving framing intact — the
	// checksum-mismatch corruption.
	FlipByte
)

// Plan schedules when an armed point fires. The deterministic
// schedule is: skip the first After hits; then fire on every Every-th
// hit (1 = every hit); Prob, when nonzero, additionally gates each
// candidate fire on a seeded PRNG; Times, when nonzero, bounds total
// fires, after which the point goes quiet.
type Plan struct {
	Every int
	After int
	Times int
	// Prob in (0,1] gates candidate fires pseudo-randomly (still
	// reproducible: the PRNG is derived from the injector seed and the
	// point name).
	Prob float64
	// Err is what Fire returns when the fault fires (default
	// ErrInjected).
	Err error
	// Delay, when nonzero, is slept before Fire returns (slow-path
	// faults). A plan with only Delay set returns nil from Fire: the
	// operation is slow, not failed.
	Delay time.Duration
	// Panic makes the fault panic(Panic{Point}) instead of returning.
	Panic bool
	// Corrupt selects the read-corruption mode for FsCorrupt plans.
	Corrupt CorruptMode
	// ShortWrite makes an FsWrite fault consume half the buffer before
	// failing, modeling a disk that filled mid-write.
	ShortWrite bool
}

type pointState struct {
	plan  Plan
	hits  int
	fires int
	rng   uint64 // splitmix64 state
}

// Injector is a concurrency-safe registry of armed fault points. The
// zero value and the nil pointer are both valid and never fire.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	points map[Point]*pointState
}

// New builds an injector whose probabilistic plans derive their PRNG
// streams from seed (per point, so arming order doesn't matter).
func New(seed uint64) *Injector {
	return &Injector{seed: seed, points: make(map[Point]*pointState)}
}

// Set arms (or re-arms, resetting counters) a fault point.
func (in *Injector) Set(p Point, plan Plan) {
	if in == nil {
		return
	}
	if plan.Every <= 0 {
		plan.Every = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.points == nil {
		in.points = make(map[Point]*pointState)
	}
	in.points[p] = &pointState{plan: plan, rng: in.seed ^ hashPoint(p)}
}

// Fire consults a point: nil on the non-fault path; the plan's error
// (after the plan's delay) when the fault fires; or a panic for
// panicking plans. A nil injector always returns nil.
func (in *Injector) Fire(p Point) error {
	if in == nil {
		return nil // before check: production pays a compare, not a Plan copy
	}
	fire, plan := in.check(p)
	if !fire {
		return nil
	}
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Panic {
		panic(Panic{Point: p})
	}
	if plan.Err == nil {
		if plan.Delay > 0 || plan.Corrupt != 0 {
			return nil // slow-only or corrupt-only plan: not a failure
		}
		return fmt.Errorf("faultinject: %s: %w", p, ErrInjected)
	}
	return fmt.Errorf("faultinject: %s: %w", p, plan.Err)
}

// check advances a point's schedule and reports whether the fault
// fires, with the plan to apply; it never acts on the plan itself
// (Fs consults it directly for write/read mutation modes).
func (in *Injector) check(p Point) (bool, Plan) {
	if in == nil {
		return false, Plan{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.points[p]
	if !ok {
		return false, Plan{}
	}
	return st.step()
}

// step advances the point's deterministic schedule; the injector lock
// must be held. It returns whether this hit fires, plus a copy of the
// plan to act on outside the lock.
func (st *pointState) step() (bool, Plan) {
	st.hits++
	p := st.plan
	if st.hits <= p.After {
		return false, p
	}
	if p.Times > 0 && st.fires >= p.Times {
		return false, p
	}
	if (st.hits-p.After)%p.Every != 0 {
		return false, p
	}
	if p.Prob > 0 && p.Prob < 1 {
		if float64(splitmix64(&st.rng)>>11)/float64(1<<53) >= p.Prob {
			return false, p
		}
	}
	st.fires++
	return true, p
}

// Hits reports how many times a point has been consulted; Fires how
// many times it actually fired. Both are 0 on a nil injector.
func (in *Injector) Hits(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.points[p]; ok {
		return st.hits
	}
	return 0
}

func (in *Injector) Fires(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.points[p]; ok {
		return st.fires
	}
	return 0
}

// hashPoint is FNV-1a over the point name, mixed into the seed so each
// point gets an independent PRNG stream.
func hashPoint(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 advances the state and returns the next value; it is the
// standard seeding-quality generator, plenty for fault schedules.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
