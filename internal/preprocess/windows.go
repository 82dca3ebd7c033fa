package preprocess

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// stamp is t in nanoseconds since the Unix epoch, the form windows
// compare times in: an integer subtraction where time.Time.Sub decodes
// both operands and checks its result for overflow. Times outside the
// int64 range (before 1678 or after 2262, the zero Time among them)
// clamp to its ends; between two times inside it, sub(stamp(a),
// stamp(b)) is a.Sub(b) exactly.
func stamp(t time.Time) int64 {
	const sec = int64(time.Second)
	const lo, hi = math.MinInt64/sec - 1, math.MaxInt64 / sec // the seconds holding a nanosecond in range
	s, ns := t.Unix(), int64(t.Nanosecond())
	switch {
	case s < lo:
		return math.MinInt64
	case s > hi:
		return math.MaxInt64
	case s < 0: // (s+1)*sec fits where s*sec may not
		return sub((s+1)*sec, sec-ns)
	default:
		return sub(s*sec, -ns)
	}
}

// sub is a - b, saturated to the int64 range as time.Time.Sub
// saturates.
func sub(a, b int64) int64 {
	d := a - b
	if (a^b)&(a^d) < 0 { // a and b differ in sign and d differs from a: overflow
		if a < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return d
}

// none is the index of no window.
const none int32 = -1

// window is one compression window: the key it is filed under, what it
// holds, and the time of the last record it absorbed, both as the
// record carried it (last, which State exports) and as a stamp (at,
// which verdicts and the expiry order compare). prev and next thread
// the set's expiry order.
type window[K comparable, V any] struct {
	key        K
	val        V
	at         int64
	last       time.Time
	prev, next int32
}

// windowSet is one key space's live windows. index maps a key to its
// window in slab, so a record hashes its key once: the lookup finds the
// window, which then updates in place. The windows are also threaded in
// order of their last record's time, oldest at head, so expire deletes
// from the head and stops at the first window it keeps: a sweep costs
// the windows that expire, not the most the set ever held.
type windowSet[K comparable, V any] struct {
	index      map[K]int32
	slab       []window[K, V]
	free       []int32
	head, tail int32
}

func newWindowSet[K comparable, V any](n int) windowSet[K, V] {
	return windowSet[K, V]{index: make(map[K]int32, n), head: none, tail: none}
}

func (w *windowSet[K, V]) len() int { return len(w.index) }

// find returns the index of k's window, or none.
func (w *windowSet[K, V]) find(k K) int32 {
	if i, ok := w.index[k]; ok {
		return i
	}
	return none
}

// put makes (val, at, last) k's window: window i, which find(k)
// returned, or a new one when that was none. It returns the window's
// index.
func (w *windowSet[K, V]) put(k K, i int32, val V, at int64, last time.Time) int32 {
	if i != none {
		w.slab[i].val = val
		w.touch(i, at, last)
		return i
	}
	if n := len(w.free); n > 0 {
		i, w.free = w.free[n-1], w.free[:n-1]
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.slab, window[K, V]{})
	}
	w.index[k] = i
	w.slab[i] = window[K, V]{key: k, val: val}
	w.link(i, at, last)
	return i
}

// touch moves window i's last record to (at, last).
func (w *windowSet[K, V]) touch(i int32, at int64, last time.Time) {
	if x := &w.slab[i]; i == w.tail && (x.prev == none || w.slab[x.prev].at <= at) {
		x.at, x.last = at, last // still the newest
		return
	}
	w.unlink(i)
	w.link(i, at, last)
}

// link gives unlinked window i its time and threads it in behind the
// newest window no later than it: the tail, when records come in time
// order.
func (w *windowSet[K, V]) link(i int32, at int64, last time.Time) {
	x := &w.slab[i]
	x.at, x.last = at, last
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
		x := &w.slab[i]
		w.head = x.next
		delete(w.index, x.key)
		*x = window[K, V]{} // release the key's strings
		w.free = append(w.free, i)
	}
	if w.head != none {
		w.slab[w.head].prev = none
		return
	}
	// Nothing is live: the next windows start at the slab's front again.
	w.tail = none
	w.slab, w.free = w.slab[:0], w.free[:0]
}

// fill replaces the set's windows with n, the j-th as entry(j) gives
// it; a key given twice keeps its later window, as a map assignment
// would.
func (w *windowSet[K, V]) fill(n int, entry func(j int) (K, V, time.Time)) {
	*w = newWindowSet[K, V](n)
	for j := 0; j < n; j++ {
		k, val, last := entry(j)
		i, ok := w.index[k]
		if !ok {
			i = int32(len(w.slab))
			w.slab = append(w.slab, window[K, V]{key: k})
			w.index[k] = i
		}
		w.slab[i].val, w.slab[i].at, w.slab[i].last = val, stamp(last), last
	}
	order := make([]int32, len(w.slab))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(w.slab[a].at, w.slab[b].at) })
	for _, i := range order {
		w.link(i, w.slab[i].at, w.slab[i].last)
	}
}
