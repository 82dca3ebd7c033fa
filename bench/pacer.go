package main

import (
	"runtime"
	"sort"
	"time"
)

// spinWindow is how long before a due time the generator stops
// sleeping and starts yielding: time.Sleep alone wakes up to a
// millisecond late, which would swamp a sub-millisecond signal.
const spinWindow = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openLoop calls op(0..n-1) on a fixed schedule: op i is due at
// start+i*interval however long the earlier ones took, and a slow op
// makes the next ones late rather than moving their due times. For
// each op it returns how late it started and how long after its due
// time it finished, so a stall is charged to every request it delayed.
func openLoop(n int, interval time.Duration, op func(i int)) (start time.Time, late, done []time.Duration) {
	late = make([]time.Duration, n)
	done = make([]time.Duration, n)
	start = time.Now().Add(spinWindow)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		late[i] = time.Since(due)
		op(i)
		done[i] = time.Since(due)
	}
	return start, late, done
}

// batchFor maps an alert's event time to the batch that carried the
// record raising it: the last batch whose first record is not after
// at. Batches are consecutive runs of a time-ordered stream, so when
// at is both the last second of one batch and the first of the next
// this picks the later one — the alert cannot have left the server
// before that batch arrived, and charging it to the earlier one would
// overstate its latency by a whole interval. -1 when at precedes
// every batch.
func batchFor(firsts []time.Time, at time.Time) int {
	return sort.Search(len(firsts), func(i int) bool { return firsts[i].After(at) }) - 1
}
