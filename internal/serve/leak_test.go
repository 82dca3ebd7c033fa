package serve

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseLeavesNoGoroutines: every goroutine a server starts — one
// supervisor per shard, the barrier waiter of a request — is gone once
// Close returns, so the process is back to the goroutine count it had
// before New.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	meta, tail := fixture(t)
	const shards = 4
	before := runtime.NumGoroutine()
	s := New(meta, Config{Shards: shards, Window: 30 * time.Minute})
	post(t, s, encode(t, tail[:2000]))
	if running := runtime.NumGoroutine(); running < before+shards {
		t.Fatalf("%d goroutines while running, want at least %d + %d shards", running, before, shards)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
