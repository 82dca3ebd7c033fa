package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"time"

	"bglpred/internal/cluster"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

const (
	serveShards = 2
	// alertHistory sizes the /v1/alerts ring to hold a whole pass, so
	// the oracle sees every alert served.
	alertHistory = 1 << 16
)

// gateMembers are the ring identities of the gate's two backends.
// They are fixed names, not the listeners' random ports, because the
// ring hashes member names: with these two the eight midplane keys
// split four and four (the hot R00-M0 among the first four, about
// 54/46 by records). A DialContext maps them onto the listeners.
var gateMembers = []string{"http://n1.bench", "http://n3.bench"}

// front is the system under test as an ingest client sees it: one
// base URL on a loopback listener, behind it either a serve.Server or
// a cluster.Gate with its backends.
type front struct {
	url     string
	handler http.Handler // what listens at url, for in-process calls
	client  *http.Client // the one ingest connection
	gate    *cluster.Gate
	servers []*serve.Server
	// backendNS sums the time the gate's backends spent in their
	// handlers; only a traced gate front counts it.
	backendNS atomic.Int64
	closers   []func()
}

// close is idempotent.
func (f *front) close() {
	f.client.CloseIdleConnections()
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

func serveConfig(shards int) serve.Config {
	return serve.Config{Shards: shards, Window: predictionWindow, History: alertHistory}
}

func ingestClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// newServeFront puts one server built from cfg on a listener.
func newServeFront(m *predictor.Meta, cfg serve.Config) *front {
	srv := serve.New(m, cfg)
	ts := httptest.NewServer(srv)
	f := &front{url: ts.URL, handler: srv, client: ingestClient(), servers: []*serve.Server{srv}}
	f.closers = []func(){func() { _ = srv.Close() }, ts.Close}
	return f
}

// newGateFront puts a gate on a listener, in front of one single-shard
// server per ring member, each on its own listener. timed wraps the
// backends so the time spent inside them can be subtracted from the
// gate's.
func newGateFront(m *predictor.Meta, timed bool) (*front, error) {
	f := &front{client: ingestClient()}
	addrs := make(map[string]string, len(gateMembers))
	for _, member := range gateMembers {
		srv := serve.New(m, serveConfig(1))
		var h http.Handler = srv
		if timed {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				t0 := time.Now()
				srv.ServeHTTP(w, r)
				f.backendNS.Add(int64(time.Since(t0)))
			})
		}
		ts := httptest.NewServer(h)
		u, err := url.Parse(member)
		if err != nil {
			return nil, err
		}
		addrs[u.Host+":80"] = ts.Listener.Addr().String()
		f.servers = append(f.servers, srv)
		f.closers = append(f.closers, func() { _ = srv.Close() }, ts.Close)
	}
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, addrs[addr])
	}}
	g, err := cluster.New(cluster.Config{Backends: gateMembers, Client: &http.Client{Transport: tr}})
	if err != nil {
		f.close()
		return nil, err
	}
	g.ProbeNow()
	gs := httptest.NewServer(g)
	f.url, f.handler, f.gate = gs.URL, g, g
	f.closers = append(f.closers, tr.CloseIdleConnections, func() { _ = g.Close() }, gs.Close)
	return f, nil
}

// ack is the part of an ingest reply both a server and a gate send.
type ack struct {
	Accepted      int64 `json:"accepted"`
	Quarantined   int64 `json:"quarantined"`
	RejectedTotal int64 `json:"rejected_total"`
}

// checkAck says why a reply to a body of n records is a failure; nil
// when every record was taken and none rejected so far.
func checkAck(status int, raw []byte, n int) error {
	if status != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %.200s", status, raw)
	}
	var a ack
	if err := json.Unmarshal(raw, &a); err != nil {
		return fmt.Errorf("ingest reply: %w", err)
	}
	if a.Accepted != int64(n) || a.Quarantined != 0 || a.RejectedTotal != 0 {
		return fmt.Errorf("ingest: sent %d records, accepted %d, quarantined %d, rejected so far %d",
			n, a.Accepted, a.Quarantined, a.RejectedTotal)
	}
	return nil
}

// post sends one body over the ingest connection and reads the reply.
func (f *front) post(b *body, text bool) error {
	req, err := http.NewRequest(http.MethodPost, f.url+"/v1/ingest", bytes.NewReader(b.data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType(text))
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return checkAck(resp.StatusCode, raw, b.n)
}

// serveInProcess hands one body to h without a socket.
func serveInProcess(h http.Handler, b *body, text bool) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.data))
	req.Header.Set("Content-Type", contentType(text))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return checkAck(rec.Code, rec.Body.Bytes(), b.n)
}

func (f *front) get(path string) ([]byte, error) {
	resp, err := f.client.Get(f.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// alertLines fetches the alerts served so far as canonical lines. A
// gate's reply has the same shape as a server's plus provenance.
func (f *front) alertLines() ([]string, error) {
	raw, err := f.get("/v1/alerts")
	if err != nil {
		return nil, err
	}
	var ar struct {
		Recent      []cluster.Alert `json:"recent"`
		TotalAlerts int64           `json:"total_alerts"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		return nil, fmt.Errorf("GET /v1/alerts: %w", err)
	}
	if f.gate == nil && ar.TotalAlerts != int64(len(ar.Recent)) {
		return nil, fmt.Errorf("GET /v1/alerts: %d alerts raised but the ring holds %d", ar.TotalAlerts, len(ar.Recent))
	}
	lines := make([]string, len(ar.Recent))
	for i, a := range ar.Recent {
		lines[i] = cluster.CanonicalAlertLine(a)
	}
	return lines, nil
}

// owner is the partition function the front routes by, for the
// reference: the ring for a gate, midplane modulo shards for a server.
func (f *front) owner() (parts int, fn func(raslog.Location) int) {
	if f.gate != nil {
		return len(gateMembers), f.gate.Ring().OwnerIndexLocation
	}
	return serveShards, func(loc raslog.Location) int { return midplaneShard(loc, serveShards) }
}
