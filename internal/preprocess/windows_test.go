package preprocess

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"bglpred/internal/raslog"
)

// flatKey hashes every key alike, so each one probes from the same
// slot: probing, backward-shift deletion across the table's wrap and
// growth all run at their worst.
type flatKey int

func (flatKey) hash() uint64 { return 0x9E3779B97F4A7C15 }

// refSet is what windowSet must agree with: which window each live key
// has, as the map index it replaced kept it, and what that window holds.
type refSet[K key] struct {
	idx  map[K]int32
	val  map[K]int
	at   map[K]int64
	peak int // most live windows since the set was last filled
}

func newRefSet[K key]() *refSet[K] {
	return &refSet[K]{idx: map[K]int32{}, val: map[K]int{}, at: map[K]int64{}}
}

func (r *refSet[K]) del(k K) { delete(r.idx, k); delete(r.val, k); delete(r.at, k) }

// check compares every observable of w with r: the live count, each
// key's window and contents, misses for the keys r does not hold, the
// expiry order, and the slot table's load and size bounds.
func (r *refSet[K]) check(t *testing.T, w *windowSet[K, int], keys []K, step string) {
	t.Helper()
	if w.len() != len(r.idx) {
		t.Fatalf("%s: len %d, reference %d", step, w.len(), len(r.idx))
	}
	for _, k := range keys {
		got := w.find(k, k.hash())
		want, ok := r.idx[k]
		if !ok {
			want = none
		}
		if got != want {
			t.Fatalf("%s: find(%v) = %d, reference %d", step, k, got, want)
		}
		if ok && (w.slab[got].key != k || w.slab[got].val != r.val[k] || w.slab[got].at != r.at[k]) {
			t.Fatalf("%s: window of %v holds %v/%d at %d, reference %d at %d", step, k, w.slab[got].key, w.slab[got].val, w.slab[got].at, r.val[k], r.at[k])
		}
	}
	n, prev := 0, int64(-1<<63)
	for i := w.head; i != none; i = w.slab[i].next {
		x := &w.slab[i]
		if _, ok := r.idx[x.key]; !ok || x.at < prev {
			t.Fatalf("%s: expiry order holds %v at %d after %d", step, x.key, x.at, prev)
		}
		prev = x.at
		n++
	}
	filed := 0
	for _, s := range w.slots {
		if s != 0 {
			filed++
		}
	}
	if n != len(r.idx) || filed != len(r.idx) {
		t.Fatalf("%s: %d windows in the expiry order and %d in the table, reference %d", step, n, filed, len(r.idx))
	}
	if 2*w.len() > len(w.slots) && w.len() > 0 || len(w.slots) > max(4, 4*r.peak) {
		t.Fatalf("%s: %d slots for %d live windows (peak %d)", step, len(w.slots), w.len(), r.peak)
	}
}

// driveWindowSet runs a random sequence of puts, touches, expiries and
// fills over keys against the reference, checking after every step.
func driveWindowSet[K key](t *testing.T, keys []K, steps int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	w, ref := newWindowSet[K, int](), newRefSet[K]()
	now := int64(1000)
	for step := 0; step < steps; step++ {
		now += int64(rng.IntN(4))
		at := now - int64(rng.IntN(8)) // now and then out of order
		var what string
		switch op := rng.IntN(100); {
		case op < 70: // a record: a new window, or a touch of a live one
			k := keys[rng.IntN(len(keys))]
			h := k.hash()
			i := w.find(k, h)
			val := rng.IntN(1000)
			got := w.put(k, h, i, val, at)
			if want, ok := ref.idx[k]; ok && got != want {
				t.Fatalf("step %d: touching %v moved its window from %d to %d", step, k, want, got)
			}
			ref.idx[k], ref.val[k], ref.at[k] = got, val, at
			ref.peak = max(ref.peak, len(ref.idx))
			what = fmt.Sprintf("put %v", k)
		case op < 95: // a sweep, now and then one that empties the set
			cutoff := now - int64(rng.IntN(60))
			if rng.IntN(10) == 0 {
				cutoff = now + 100
			}
			w.expire(cutoff)
			for k, a := range ref.at {
				if a < cutoff {
					ref.del(k)
				}
			}
			what = fmt.Sprintf("expire %d", cutoff)
		default: // a restore, keys drawn with repeats
			n := rng.IntN(2 * len(keys))
			type entry struct {
				k   K
				val int
				at  int64
			}
			es := make([]entry, n)
			for j := range es {
				es[j] = entry{keys[rng.IntN(len(keys))], rng.IntN(1000), now - int64(rng.IntN(60))}
			}
			w.fill(n, func(j int) (K, int, int64) { return es[j].k, es[j].val, es[j].at })
			ref = newRefSet[K]()
			ref.peak = n
			for _, e := range es { // a later entry of a key replaces its earlier one
				ref.val[e.k], ref.at[e.k] = e.val, e.at
			}
			for k := range ref.val {
				ref.idx[k] = w.find(k, k.hash())
			}
			what = fmt.Sprintf("fill %d", n)
		}
		ref.check(t, &w, keys, fmt.Sprintf("step %d (%s)", step, what))
	}
}

// TestWindowSetMatchesMap drives the slot table against a map index
// with the compressor's two key types and with keys that all hash
// alike.
func TestWindowSetMatchesMap(t *testing.T) {
	var tkeys []tkey
	var skeys []skey
	var flat []flatKey
	for i := 0; i < 300; i++ {
		loc := raslog.Location{Kind: raslog.KindComputeChip, Rack: i % 4, Midplane: i / 4 % 2, Card: i / 8 % 16, Chip: i % 32}
		tkeys = append(tkeys, tkey{job: int64(i % 7), loc: loc, sub: i % 5})
		skeys = append(skeys, skey{job: int64(i % 3), entry: fmt.Sprintf("entry %d", i/3)})
	}
	for i := 0; i < 60; i++ {
		flat = append(flat, flatKey(i))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("tkey/", seed), func(t *testing.T) { driveWindowSet(t, tkeys, 4000, seed) })
		t.Run(fmt.Sprint("skey/", seed), func(t *testing.T) { driveWindowSet(t, skeys, 4000, seed) })
		t.Run(fmt.Sprint("flat/", seed), func(t *testing.T) { driveWindowSet(t, flat, 4000, seed) })
	}
}

// TestWindowSetFillKeepsLaterWindow: a key a restore gives twice keeps
// the later window, as a map assignment would.
func TestWindowSetFillKeepsLaterWindow(t *testing.T) {
	w := newWindowSet[flatKey, int]()
	es := []struct {
		k   flatKey
		val int
		at  int64
	}{{1, 10, 5}, {2, 20, 6}, {1, 11, 3}, {3, 30, 7}, {2, 21, 9}}
	w.fill(len(es), func(j int) (flatKey, int, int64) { return es[j].k, es[j].val, es[j].at })
	if w.len() != 3 {
		t.Fatalf("%d windows, want 3", w.len())
	}
	for k, want := range map[flatKey][2]int64{1: {11, 3}, 2: {21, 9}, 3: {30, 7}} {
		i := w.find(k, k.hash())
		if i == none || int64(w.slab[i].val) != want[0] || w.slab[i].at != want[1] {
			t.Fatalf("key %d: window %d, want val %d at %d", k, i, want[0], want[1])
		}
	}
	var order []flatKey
	for i := w.head; i != none; i = w.slab[i].next {
		order = append(order, w.slab[i].key)
	}
	if fmt.Sprint(order) != "[1 3 2]" {
		t.Fatalf("expiry order %v, want [1 3 2]", order)
	}
}
