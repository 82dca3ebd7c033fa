package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/serve"
)

// Alert is a serve.Alert annotated with the backend it came from.
// The embedded fields flatten into the same JSON a single node
// serves, so cluster-unaware clients parse gate responses unchanged.
type Alert struct {
	serve.Alert
	Backend string `json:"backend"`
}

// AlertsResponse is the body of the gate's merged GET /v1/alerts: the
// single-node shape plus provenance and reachability.
type AlertsResponse struct {
	// Standing lists every backend's in-force alarms.
	Standing []Alert `json:"standing"`
	// Recent merges the backends' recent rings: deduplicated by alert
	// key (time bounds, confidence, source, detail), time-ordered.
	Recent []Alert `json:"recent"`
	// TotalAlerts sums the reachable backends' lifetime counts.
	TotalAlerts int64 `json:"total_alerts"`
	// Unreachable names backends whose alerts are missing from this
	// merge (down, or the fan-out request failed).
	Unreachable []string `json:"unreachable,omitempty"`
}

// handleAlerts fans GET /v1/alerts out to every reachable backend
// concurrently and merges the responses deterministically.
func (g *Gate) handleAlerts(w http.ResponseWriter, r *http.Request) {
	type nodeAlerts struct {
		url  string
		resp serve.AlertsResponse
		err  error
	}
	results := make([]nodeAlerts, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		results[i].url = b.url
		b.mu.Lock()
		down := b.state == StateDown
		b.mu.Unlock()
		if down {
			results[i].err = fmt.Errorf("backend %s is down", b.url)
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			results[i].resp, results[i].err = g.fetchAlerts(b)
		}(i, b)
	}
	wg.Wait()

	resp := AlertsResponse{Standing: []Alert{}, Recent: []Alert{}}
	var recent []Alert
	for _, n := range results {
		if n.err != nil {
			resp.Unreachable = append(resp.Unreachable, n.url)
			continue
		}
		resp.TotalAlerts += n.resp.TotalAlerts
		for _, a := range n.resp.Standing {
			resp.Standing = append(resp.Standing, Alert{Alert: a, Backend: n.url})
		}
		for _, a := range n.resp.Recent {
			recent = append(recent, Alert{Alert: a, Backend: n.url})
		}
	}
	sortAlerts(resp.Standing)
	resp.Recent = dedupAlerts(recent)
	edge.WriteJSON(w, http.StatusOK, resp)
}

func (g *Gate) fetchAlerts(b *backend) (serve.AlertsResponse, error) {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/alerts", nil)
	if err != nil {
		return serve.AlertsResponse{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return serve.AlertsResponse{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return serve.AlertsResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.AlertsResponse{}, fmt.Errorf("alerts from %s: %s", b.url, resp.Status)
	}
	var ar serve.AlertsResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return serve.AlertsResponse{}, fmt.Errorf("alerts from %s: %w", b.url, err)
	}
	return ar, nil
}

// alertKey identifies an alert independently of which backend (and
// with what local sequence number) raised it: the prediction's time
// bounds, confidence, source and detail. Two backends can only
// produce the same key for genuinely duplicated evidence, which is
// exactly what the merge must collapse.
func alertKey(a Alert) string {
	return fmt.Sprintf("%d|%d|%d|%.17g|%s|%s",
		a.At.UnixNano(), a.Start.UnixNano(), a.End.UnixNano(),
		a.Confidence, a.Source, a.Detail)
}

// alertLess is the merge's total order: event time first, then every
// remaining field, so the merged stream is deterministic regardless
// of fan-out arrival order.
func alertLess(a, b Alert) bool {
	if !a.At.Equal(b.At) {
		return a.At.Before(b.At)
	}
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	if !a.End.Equal(b.End) {
		return a.End.Before(b.End)
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	if a.Confidence != b.Confidence {
		return a.Confidence < b.Confidence
	}
	if a.Backend != b.Backend {
		return a.Backend < b.Backend
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Seq < b.Seq
}

func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool { return alertLess(alerts[i], alerts[j]) })
}

// dedupAlerts canonically orders alerts and collapses key duplicates,
// keeping the first (lowest backend/shard/seq) witness of each.
func dedupAlerts(alerts []Alert) []Alert {
	sortAlerts(alerts)
	out := make([]Alert, 0, len(alerts))
	seen := make(map[string]bool, len(alerts))
	for _, a := range alerts {
		k := alertKey(a)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}

// CanonicalAlertLine renders an alert's backend-independent identity
// as one text line — the form the chaos acceptance test compares
// byte-for-byte between a gate-merged stream and a single-node
// reference (Seq, Shard and Backend are provenance, not identity).
func CanonicalAlertLine(a Alert) string {
	return fmt.Sprintf("%s %s %s %.6f %s %s",
		a.At.UTC().Format(time.RFC3339Nano),
		a.Start.UTC().Format(time.RFC3339Nano),
		a.End.UTC().Format(time.RFC3339Nano),
		a.Confidence, a.Source, a.Detail)
}
