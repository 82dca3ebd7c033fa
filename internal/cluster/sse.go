package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"bglpred/internal/serve"
)

// streamLoop is one backend's SSE fan-in subscriber: it holds a
// GET /v1/alerts/stream open against the backend, republishes each
// alert (annotated with its origin) onto the gate's broker, and
// resubscribes after StreamRetry whenever the connection drops —
// including across backend restarts, which is how a gate client keeps
// one uninterrupted stream while cluster members come and go.
func (g *Gate) streamLoop(b *backend) {
	defer g.wg.Done()
	for {
		if g.ctx.Err() != nil {
			return
		}
		g.subscribeOnce(b)
		select {
		case <-g.ctx.Done():
			return
		case <-time.After(g.cfg.StreamRetry):
		}
	}
}

// subscribeOnce holds one SSE subscription against a backend until it
// drops (or the gate closes).
func (g *Gate) subscribeOnce(b *backend) {
	req, err := http.NewRequestWithContext(g.ctx, http.MethodGet, b.url+"/v1/alerts/stream", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	// The backend registered this subscriber before answering 200, so
	// from here every alert it raises reaches the fan-in.
	g.streamsUp.Add(1)
	defer g.streamsUp.Add(-1)

	// Minimal SSE decode: accumulate event/data fields, dispatch on the
	// blank line, ignore comments and ids (the gate assigns its own).
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "alert" && data != "" {
				var a serve.Alert
				if json.Unmarshal([]byte(data), &a) == nil {
					g.broker.Publish(Alert{Alert: a, Backend: b.url})
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"):
			// heartbeat / connected comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
}
