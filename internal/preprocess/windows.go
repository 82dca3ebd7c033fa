package preprocess

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"
)

// none is the index of no window.
const none int32 = -1

// strSeed and hashSeed seed the windows' slot tables. They are drawn
// once per process (maphash seeds are random), so no pair of keys
// collides in every run; where a key lands in a table decides only how
// long a probe runs, never an output.
var (
	strSeed  = maphash.MakeSeed()
	hashSeed = [2]uint64{maphash.String(strSeed, "0"), maphash.String(strSeed, "1")}
)

// mix folds x into h with one seeded 64×64→128-bit multiply, its
// halves xored, as wyhash does.
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^hashSeed[0], x^hashSeed[1])
	return hi ^ lo
}

// key is a window set's key: comparable, and hashing itself under the
// process's seed.
type key interface {
	comparable
	hash() uint64
}

// window is one compression window: the key it is filed under and that
// key's hash, what it holds, and the time of the last record it
// absorbed in Unix nanoseconds (at). prev and next thread the set's
// expiry order.
type window[K key, V any] struct {
	key        K
	val        V
	hash       uint64
	at         int64
	prev, next int32
}

// windowSet is one key space's live windows. They live in slab, and
// slots indexes them by key: an open-addressed table, probed linearly
// from a key's hash, whose every slot holds 1 + the slab index of a
// window or 0 when empty. A deletion shifts the windows probed past
// its slot back over the gap, so there are no tombstones; the table
// doubles, refiled from the expiry order, before it passes half full,
// so it holds at most four slots per window at the set's peak. The
// slab starts over when the set empties. The windows are also
// threaded in order of their last record's time, oldest at head, so
// expire deletes from the head and stops at the first window it keeps:
// a sweep costs the windows that expire, not the most the set ever
// held.
type windowSet[K key, V any] struct {
	slots      []int32
	n          int // live windows
	slab       []window[K, V]
	free       []int32
	head, tail int32
}

func newWindowSet[K key, V any]() windowSet[K, V] {
	return windowSet[K, V]{head: none, tail: none}
}

func (w *windowSet[K, V]) len() int { return w.n }

// find returns the index of the window of k, hashed h, or none.
func (w *windowSet[K, V]) find(k K, h uint64) int32 {
	if len(w.slots) == 0 {
		return none
	}
	mask := uint64(len(w.slots) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		s := w.slots[p]
		if s == 0 {
			return none
		}
		if x := &w.slab[s-1]; x.hash == h && x.key == k {
			return s - 1
		}
	}
}

// put makes (val, at) the window of k, hashed h: window i, which find
// returned, or a new one when that was none. It returns the window's
// index.
func (w *windowSet[K, V]) put(k K, h uint64, i int32, val V, at int64) int32 {
	if i != none {
		w.slab[i].val = val
		w.touch(i, at)
		return i
	}
	if 2*(w.n+1) > len(w.slots) {
		w.grow()
	}
	if n := len(w.free); n > 0 {
		i, w.free = w.free[n-1], w.free[:n-1]
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.slab, window[K, V]{})
	}
	x := &w.slab[i] // zero: new, or cleared by expire; link sets the rest
	x.key, x.val, x.hash = k, val, h
	w.file(i)
	w.link(i, at)
	return i
}

// grow doubles the slot table and refiles the live windows into it.
// It allocates only when the live windows pass a new peak, so a steady
// stream runs on the table it has (TestIngestBatchZeroAllocs).
func (w *windowSet[K, V]) grow() {
	w.slots = make([]int32, max(4, 2*len(w.slots)))
	w.n = 0
	for i := w.head; i != none; i = w.slab[i].next {
		w.file(i)
	}
}

// file enters window i in the slot table, which has room for it.
func (w *windowSet[K, V]) file(i int32) {
	mask := uint64(len(w.slots) - 1)
	p := w.slab[i].hash & mask
	for w.slots[p] != 0 {
		p = (p + 1) & mask
	}
	w.slots[p] = i + 1
	w.n++
}

// unfile takes window i out of the slot table. Each window probed past
// its slot moves back into the gap unless its own probe starts after
// the gap, so every probe still reaches its window.
func (w *windowSet[K, V]) unfile(i int32) {
	mask := uint64(len(w.slots) - 1)
	p := w.slab[i].hash & mask
	for w.slots[p] != i+1 {
		p = (p + 1) & mask
	}
	for q := (p + 1) & mask; w.slots[q] != 0; q = (q + 1) & mask {
		if home := w.slab[w.slots[q]-1].hash & mask; (q-home)&mask >= (q-p)&mask {
			w.slots[p], p = w.slots[q], q
		}
	}
	w.slots[p] = 0
	w.n--
}

// touch moves window i's last record to at.
func (w *windowSet[K, V]) touch(i int32, at int64) {
	if x := &w.slab[i]; i == w.tail && (x.prev == none || w.slab[x.prev].at <= at) {
		x.at = at // still the newest
		return
	}
	w.unlink(i)
	w.link(i, at)
}

// link gives unlinked window i its time and threads it in behind the
// newest window no later than it: the tail, when records come in time
// order.
func (w *windowSet[K, V]) link(i int32, at int64) {
	x := &w.slab[i]
	x.at = at
	p := w.tail
	for p != none && w.slab[p].at > at {
		p = w.slab[p].prev
	}
	n := w.head
	if p != none {
		n = w.slab[p].next
		w.slab[p].next = i
	} else {
		w.head = i
	}
	if n != none {
		w.slab[n].prev = i
	} else {
		w.tail = i
	}
	x.prev, x.next = p, n
}

func (w *windowSet[K, V]) unlink(i int32) {
	x := &w.slab[i]
	if x.prev != none {
		w.slab[x.prev].next = x.next
	} else {
		w.head = x.next
	}
	if x.next != none {
		w.slab[x.next].prev = x.prev
	} else {
		w.tail = x.prev
	}
}

// expire deletes the windows whose last record is older than cutoff.
func (w *windowSet[K, V]) expire(cutoff int64) {
	for w.head != none && w.slab[w.head].at < cutoff {
		i := w.head
		w.head = w.slab[i].next
		w.unfile(i)
		w.slab[i] = window[K, V]{} // release the key's strings
		w.free = append(w.free, i)
	}
	if w.head != none {
		w.slab[w.head].prev = none
		return
	}
	// Nothing is live: the next windows start at the slab's front again,
	// and the table is empty.
	w.tail = none
	w.slab, w.free = w.slab[:0], w.free[:0]
}

// fill replaces the set's windows with n, the j-th as entry(j) gives
// it; a key given twice keeps its later window, as a map assignment
// would.
func (w *windowSet[K, V]) fill(n int, entry func(j int) (K, V, int64)) {
	*w = newWindowSet[K, V]()
	if n > 0 {
		w.slots = make([]int32, max(4, 1<<bits.Len(uint(2*n-1))))
	}
	for j := 0; j < n; j++ {
		k, val, at := entry(j)
		h := k.hash()
		i := w.find(k, h)
		if i == none {
			i = int32(len(w.slab))
			w.slab = append(w.slab, window[K, V]{key: k, hash: h})
			w.file(i)
		}
		w.slab[i].val, w.slab[i].at = val, at
	}
	order := make([]int32, len(w.slab))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(w.slab[a].at, w.slab[b].at) })
	for _, i := range order {
		w.link(i, w.slab[i].at)
	}
}
