package edge

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// subBuffer is the per-subscriber channel capacity; alerts are rare
// relative to ingest volume, so a small buffer absorbs normal jitter.
const subBuffer = 64

// Broker fans alerts out to server-sent-event subscribers. Publishing
// never blocks: a subscriber whose buffer is full loses that event
// (counted in Dropped), so a stalled client can never stall the
// goroutine that raised the alert.
type Broker[T any] struct {
	mu      sync.Mutex
	subs    map[chan T]struct{}
	closed  bool
	dropped atomic.Int64
}

// NewBroker returns a broker with no subscribers.
func NewBroker[T any]() *Broker[T] {
	return &Broker[T]{subs: make(map[chan T]struct{})}
}

// subscribe registers a new subscriber; ok is false after Close.
func (b *Broker[T]) subscribe() (ch chan T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false
	}
	ch = make(chan T, subBuffer)
	b.subs[ch] = struct{}{}
	return ch, true
}

// unsubscribe removes a subscriber; pending events are discarded.
func (b *Broker[T]) unsubscribe(ch chan T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, live := b.subs[ch]; live {
		delete(b.subs, ch)
		close(ch)
	}
}

// Publish delivers v to every subscriber without blocking.
func (b *Broker[T]) Publish(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.subs {
		select {
		case ch <- v:
		default:
			b.dropped.Add(1)
		}
	}
}

// Close disconnects all subscribers and refuses new ones. Idempotent.
func (b *Broker[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}

// Dropped counts events lost on slow subscribers.
func (b *Broker[T]) Dropped() int64 { return b.dropped.Load() }

// ServeSSE serves one GET /v1/alerts/stream subscriber until it hangs
// up or the broker closes. A subscriber sees only what is published
// after it connects. Each event is
//
//	id: <id(v)>
//	event: alert
//	data: <v as JSON>
//
// and every heartbeat interval (if positive) a ": hb" comment goes
// out, which keeps intermediaries from timing a quiet stream out and
// forces a write error on dead peers, so they are reaped even when no
// alerts flow.
func (b *Broker[T]) ServeSSE(w http.ResponseWriter, r *http.Request, heartbeat time.Duration, id func(T) int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, ok := b.subscribe()
	if !ok {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer b.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line commits the headers so clients see the
	// stream is live before the first alert.
	fmt.Fprint(w, ": connected\n\n")
	flusher.Flush()

	var hb <-chan time.Time
	if heartbeat > 0 {
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		hb = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case v, live := <-ch:
			if !live {
				return // broker closed (server draining)
			}
			data, err := json.Marshal(v)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: alert\ndata: %s\n\n", id(v), data)
			flusher.Flush()
		}
	}
}
