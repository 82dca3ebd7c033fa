package cluster

import (
	"bytes"
	"time"
)

// replayEntry is one ingest unit owed to a backend: a text line
// (newline-terminated, pipe or raw dialect) or a binary wire frame,
// plus the newest event time it carries, used for window pruning.
// Undecodable raw lines carry a zero time and are only ever dropped by
// the hard cap.
type replayEntry struct {
	line []byte
	at   time.Time
	// n is the record count the entry carries (0 reads as 1 — a text
	// line); wire frames carry many.
	n int
	// bin marks a binary wire frame; forwards must not mix formats in
	// one POST body, so delivery splits batches into homogeneous runs.
	bin bool
}

// records returns the record count, treating 0 as 1.
func (e *replayEntry) records() int64 {
	if e.n > 0 {
		return int64(e.n)
	}
	return 1
}

// countRecords sums records across entries.
func countRecords(entries []replayEntry) int64 {
	var n int64
	for i := range entries {
		n += entries[i].records()
	}
	return n
}

// ownerBatch is what one ingest request owes one backend, laid out as
// the forward will send it: the request's lines or wire sub-frames for
// that backend back to back in buf, plus one mark per entry so the
// batch can still park entry by entry. A batch lives in a pooled
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
	ob.n += max(int64(n), 1)
}

// entries returns the batch as replay entries that own their bytes — a
// replay buffer outlives the request whose scratch buf belongs to — at
// the price of one copy of buf, which the entries share.
func (ob *ownerBatch) entries(bin bool) []replayEntry {
	owned := bytes.Clone(ob.buf)
	out := make([]replayEntry, len(ob.marks))
	start := 0
	for i, m := range ob.marks {
		out[i] = replayEntry{line: owned[start:m.end:m.end], at: m.at, n: m.n, bin: bin}
		start = m.end
	}
	return out
}

// splitRuns partitions entries into maximal runs sharing a wire
// format, preserving order. With homogeneous traffic (the common case)
// it returns a single run backed by the input slice.
func splitRuns(entries []replayEntry) [][]replayEntry {
	var runs [][]replayEntry
	start := 0
	for i := 1; i <= len(entries); i++ {
		if i == len(entries) || entries[i].bin != entries[start].bin {
			runs = append(runs, entries[start:i])
			start = i
		}
	}
	return runs
}

// replayBuffer is the bounded, ordered backlog of lines accepted by
// the gate while their owner backend was unroutable — the lifecycle
// Recorder's sliding-window pattern applied to delivery instead of
// retraining: bounded by both an event-time window and a hard line
// cap, pruned lazily, oldest lines sacrificed first. Callers
// synchronize access (the owning backend's mutex).
type replayBuffer struct {
	cap     int
	window  time.Duration
	entries []replayEntry
	dropped int64 // lifetime lines lost to the bounds
}

// Default replay bounds: one hour of event time, capped at 64k lines
// per backend (a few MB — enough to ride out a restart, bounded
// enough that a dead backend cannot OOM the gate).
const (
	defaultReplayWindow = time.Hour
	defaultReplayCap    = 64 * 1024
)

func newReplayBuffer(capLines int, window time.Duration) replayBuffer {
	if capLines <= 0 {
		capLines = defaultReplayCap
	}
	if window <= 0 {
		window = defaultReplayWindow
	}
	return replayBuffer{cap: capLines, window: window}
}

// append parks one line at the tail, pruning if the cap trips.
func (rb *replayBuffer) append(e replayEntry) {
	rb.entries = append(rb.entries, e)
	if len(rb.entries) > rb.cap {
		rb.prune()
	}
}

// prune drops entries older than the window (relative to the newest
// buffered event time) and then enforces the hard cap, oldest first.
func (rb *replayBuffer) prune() {
	before := len(rb.entries)
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
		}
	}
	if len(keep) > rb.cap {
		copy(keep, keep[len(keep)-rb.cap:])
		keep = keep[:rb.cap]
	}
	rb.dropped += int64(before - len(keep))
	// Release pruned tails so the lines can be collected.
	for i := len(keep); i < before; i++ {
		rb.entries[i] = replayEntry{}
	}
	rb.entries = keep
}

// takeAll removes and returns the whole backlog, oldest first.
func (rb *replayBuffer) takeAll() []replayEntry {
	out := rb.entries
	rb.entries = nil
	return out
}

// restore pushes entries back to the front of the buffer — the undo
// path when a drain's delivery fails mid-flight. Order is preserved:
// restored lines precede anything buffered since takeAll.
func (rb *replayBuffer) restore(entries []replayEntry) {
	if len(entries) == 0 {
		return
	}
	rb.entries = append(entries, rb.entries...)
	if len(rb.entries) > rb.cap {
		rb.prune()
	}
}

// len reports the buffered line count.
func (rb *replayBuffer) len() int { return len(rb.entries) }
