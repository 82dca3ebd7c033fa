// Command bglgate runs the cluster ingest router: it fronts N
// bglserved backends with the same HTTP surface a single daemon
// exposes, consistent-hash-routing each POST /v1/ingest record to the
// backend owning its rack/midplane, and merging the backends' alert
// views on the read path. Clients may post either dialect; the gate
// transcodes text bodies to binary wire frames at the door and
// forwards wire frames only. A text line that does not decode, or
// whose record the wire cannot carry, parks in the gate's own
// GET /v1/quarantine under the client's line number.
//
//	POST /v1/ingest          routed by rack/midplane over the hash ring
//	GET  /v1/alerts          merged standing + recent alerts, deduplicated
//	GET  /v1/alerts/stream   fan-in SSE union of every backend's stream
//	GET  /v1/cluster/status  per-backend health, versions, replay backlogs
//	POST /v1/model/reload    rolling cluster-wide retrain + hot-swap
//	GET  /healthz            gate liveness (isolated when no backend routes)
//	GET  /metrics            bglgate_* Prometheus exposition
//
// Usage:
//
//	bglgate -backends http://10.0.0.1:8650,http://10.0.0.2:8650
//	bglgate -addr :8640 -backends http://a:8650,http://b:8650 -vnodes 128
//
// A backend that stops answering is marked down; records hashed to it
// are parked, in order, in a bounded replay buffer and re-delivered
// when its health probe recovers, so a restart costs latency, not
// data. Backends serving a model SHA that disagrees with the cluster
// majority are refused traffic until POST /v1/model/reload rolls them
// back into agreement.
//
// Drive it with cmd/bglreplay exactly as a single node:
//
//	bglreplay -url http://localhost:8640 -train 0 anl.raslog
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bglpred/internal/cluster"
	"bglpred/internal/edge"
)

func main() {
	addr := flag.String("addr", ":8640", "listen address")
	backends := flag.String("backends", "", "comma-separated bglserved base URLs (required)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "backend health-probe cadence")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
	forwardTimeout := flag.Duration("forward-timeout", 30*time.Second, "per-forward ingest deadline")
	reloadTimeout := flag.Duration("reload-timeout", 5*time.Minute, "per-backend deadline during a rolling model swap")
	replayCap := flag.Int("replay-cap", 0, "replay-buffer record cap per backend (0 = default 64k)")
	replayWindow := flag.Duration("replay-window", 0, "replay-buffer event-time window (0 = default 1h)")
	heartbeat := flag.Duration("stream-heartbeat", 15*time.Second, "SSE heartbeat interval (negative disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "http.Server ReadTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	var debug bool
	edge.DebugFlag(flag.CommandLine, &debug)
	flag.Parse()

	if err := run(*addr, *backends, *vnodes, gateTimeouts{
		probeInterval:  *probeInterval,
		probeTimeout:   *probeTimeout,
		forwardTimeout: *forwardTimeout,
		reloadTimeout:  *reloadTimeout,
		heartbeat:      *heartbeat,
		readHeader:     *readHeaderTimeout,
		read:           *readTimeout,
		idle:           *idleTimeout,
	}, *replayCap, *replayWindow, debug); err != nil {
		fmt.Fprintf(os.Stderr, "bglgate: %v\n", err)
		os.Exit(1)
	}
}

type gateTimeouts struct {
	probeInterval, probeTimeout, forwardTimeout, reloadTimeout, heartbeat time.Duration
	readHeader, read, idle                                                time.Duration
}

func run(addr, backendList string, vnodes int, t gateTimeouts, replayCap int, replayWindow time.Duration, debug bool) error {
	var urls []string
	for _, u := range strings.Split(backendList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return errors.New("-backends is required (comma-separated bglserved base URLs)")
	}

	gate, err := cluster.New(cluster.Config{
		Backends:        urls,
		VNodes:          vnodes,
		ProbeInterval:   t.probeInterval,
		ProbeTimeout:    t.probeTimeout,
		ForwardTimeout:  t.forwardTimeout,
		ReloadTimeout:   t.reloadTimeout,
		ReplayCap:       replayCap,
		ReplayWindow:    replayWindow,
		StreamHeartbeat: t.heartbeat,
		Logf:            logf,
	})
	if err != nil {
		return err
	}
	// Probe once before serving so the first requests route on a real
	// health view, then let the background prober take over.
	gate.ProbeNow()
	gate.Start()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// WriteTimeout stays disabled: it would sever the long-lived merged
	// SSE stream; heartbeats handle dead-peer detection instead.
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           edge.WithDebug(gate, debug),
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
	}
	errc := make(chan error, 1)
	go func() {
		logf("routing on %s for %d backends (%d vnodes each): %s",
			addr, len(urls), vnodes, strings.Join(gate.Ring().Members(), ", "))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		gate.Close()
		return err
	case <-ctx.Done():
	}

	logf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	gate.Close()
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bglgate: "+format+"\n", args...)
}
