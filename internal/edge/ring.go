package edge

import "sync"

// Sequenced is an entry that carries its own lifetime sequence number:
// WithSeq returns the entry stamped with the number the ring assigned.
type Sequenced[T any] interface {
	WithSeq(seq int64) T
}

// Ring keeps the newest capacity entries of an unbounded stream for
// inspection, and counts the rest: total is every entry ever added
// (and the next sequence number), dropped how many of those the ring
// has evicted — so an overflow is visible, never silent.
type Ring[T Sequenced[T]] struct {
	mu    sync.Mutex
	buf   []T
	total int64
}

// NewRing returns a ring holding up to capacity (at least one) entries.
func NewRing[T Sequenced[T]](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Add stamps v with the next sequence number and stores it, evicting
// the oldest entry once the ring is full. It returns the stamped entry.
func (r *Ring[T]) Add(v T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v = v.WithSeq(r.total)
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%int64(cap(r.buf))] = v
	}
	r.total++
	return v
}

// Counts returns the lifetime total and how many entries were evicted.
func (r *Ring[T]) Counts() (total, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.total - int64(len(r.buf))
}

// Snapshot returns the held entries oldest first, with the counts of
// the same instant: total-dropped == len(recent) in every reply.
func (r *Ring[T]) Snapshot() (recent []T, total, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	recent = make([]T, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		recent = append(recent, r.buf...)
	} else {
		head := r.total % int64(cap(r.buf))
		recent = append(recent, r.buf[head:]...)
		recent = append(recent, r.buf[:head]...)
	}
	return recent, r.total, r.total - int64(len(r.buf))
}
