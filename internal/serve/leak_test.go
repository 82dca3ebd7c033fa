package serve

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseLeavesNoGoroutines: a server owns no goroutines of its own.
// A request's fan-out goroutines are joined before it replies, so an
// idle server — after ingesting over all its shards, and again after
// Close — leaves the process at the goroutine count it had before New.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	meta, tail := fixture(t)
	before := runtime.NumGoroutine()
	settle := func(when string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines %s, %d before New", runtime.NumGoroutine(), when, before)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	s := New(meta, Config{Shards: 4, Window: 30 * time.Minute})
	settle("after New")
	post(t, s, encode(t, tail[:2000]))
	settle("on an idle server after a request")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settle("after Close")
}
