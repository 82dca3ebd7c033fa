package cluster

import (
	"bytes"
	"time"
)

// replayEntry is one ingest unit owed to a backend: a wire frame of n
// records, plus the newest event time it carries, used for window
// pruning. A frame none of whose records could be peeked carries a zero
// time and is only ever dropped by the hard cap.
type replayEntry struct {
	line []byte
	at   time.Time
	n    int
}

// countRecords sums records across entries.
func countRecords(entries []replayEntry) int64 {
	var n int64
	for i := range entries {
		n += int64(entries[i].n)
	}
	return n
}

// ownerBatch is what one ingest request owes one backend, laid out as
// the forward will send it: the request's wire sub-frames for that
// backend back to back in buf, plus one mark per sub-frame so the batch
// can still park entry by entry. A batch lives in a pooled
// routeScratch; a forward borrows buf, parking copies out of it.
type ownerBatch struct {
	buf   []byte
	marks []entryMark
	n     int64 // records carried
}

// entryMark delimits one entry of an ownerBatch: it ends at buf[end]
// and starts where the previous one ended; at and n are as on
// replayEntry.
type entryMark struct {
	end int
	at  time.Time
	n   int
}

// mark closes the entry appended to buf since the previous mark.
func (ob *ownerBatch) mark(at time.Time, n int) {
	ob.marks = append(ob.marks, entryMark{end: len(ob.buf), at: at, n: n})
	ob.n += int64(n)
}

// entries returns the batch as replay entries that own their bytes — a
// replay buffer outlives the request whose scratch buf belongs to — at
// the price of one copy of buf, which the entries share.
func (ob *ownerBatch) entries() []replayEntry {
	owned := bytes.Clone(ob.buf)
	out := make([]replayEntry, len(ob.marks))
	start := 0
	for i, m := range ob.marks {
		out[i] = replayEntry{line: owned[start:m.end:m.end], at: m.at, n: m.n}
		start = m.end
	}
	return out
}

// replayBuffer is the bounded, ordered backlog of records accepted by
// the gate while their owner backend was unroutable — the lifecycle
// Recorder's sliding-window pattern applied to delivery instead of
// retraining: bounded by both an event-time window and a hard record
// cap, pruned lazily, oldest entries sacrificed whole and first. Every
// bound and count is in records, not entries. Callers synchronize
// access (the owning backend's mutex).
type replayBuffer struct {
	cap     int
	window  time.Duration
	entries []replayEntry
	records int   // Σ n over entries
	dropped int64 // lifetime records lost to the bounds
}

// Default replay bounds: one hour of event time, capped at 64k records
// per backend (a few MB of wire frames — enough to ride out a restart,
// bounded enough that a dead backend cannot OOM the gate).
const (
	defaultReplayWindow = time.Hour
	defaultReplayCap    = 64 * 1024
)

func newReplayBuffer(capRecords int, window time.Duration) replayBuffer {
	if capRecords <= 0 {
		capRecords = defaultReplayCap
	}
	if window <= 0 {
		window = defaultReplayWindow
	}
	return replayBuffer{cap: capRecords, window: window}
}

// append parks one entry at the tail, pruning if the cap trips.
func (rb *replayBuffer) append(e replayEntry) {
	rb.entries = append(rb.entries, e)
	rb.records += e.n
	if rb.records > rb.cap {
		rb.prune()
	}
}

// prune drops entries older than the window (relative to the newest
// buffered event time) and then whole entries, oldest first, until the
// records left fit the cap.
func (rb *replayBuffer) prune() {
	var latest time.Time
	for i := range rb.entries {
		if rb.entries[i].at.After(latest) {
			latest = rb.entries[i].at
		}
	}
	cutoff := latest.Add(-rb.window)
	keep := rb.entries[:0]
	for _, e := range rb.entries {
		if e.at.IsZero() || !e.at.Before(cutoff) {
			keep = append(keep, e)
		} else {
			rb.drop(e)
		}
	}
	cut := 0
	for ; rb.records > rb.cap; cut++ {
		rb.drop(keep[cut])
	}
	n := copy(rb.entries, keep[cut:])
	clear(rb.entries[n:]) // release pruned tails so their frames can be collected
	rb.entries = rb.entries[:n]
}

// drop counts one pruned entry's records lost.
func (rb *replayBuffer) drop(e replayEntry) {
	rb.records -= e.n
	rb.dropped += int64(e.n)
}

// takeAll removes and returns the whole backlog, oldest first.
func (rb *replayBuffer) takeAll() []replayEntry {
	out := rb.entries
	rb.entries, rb.records = nil, 0
	return out
}

// restore pushes entries back to the front of the buffer — the undo
// path when a drain's delivery fails. Order is preserved: restored
// entries precede anything buffered since takeAll.
func (rb *replayBuffer) restore(entries []replayEntry) {
	if len(entries) == 0 {
		return
	}
	rb.entries = append(entries, rb.entries...)
	rb.records += int(countRecords(entries))
	if rb.records > rb.cap {
		rb.prune()
	}
}

// len reports the buffered record count.
func (rb *replayBuffer) len() int { return rb.records }
