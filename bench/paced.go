package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bglpred/internal/cluster"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/serve"
)

const (
	pacedInterval      = 10 * time.Millisecond // 100 POST/s
	checkpointInterval = time.Second
	// sseGrace is how long after the last ack the subscriber may
	// still be handed alerts before the missing ones count as failed.
	sseGrace = 2 * time.Second
)

// pacedStats is what one paced run measured beyond the end-to-end
// metrics; a traced run reports it as per-layer metrics.
type pacedStats struct {
	ackMS, lateUS, alertMS, checkpointMS []float64
	checkpointBytes                      float64
	appendsPerFsync, bytesPerEntry       float64
	verifyMS, proofUS, restoreMS         float64
	counters                             map[string]float64 // the server's /metrics
}

// sseAlert is one alert as the subscriber saw it.
type sseAlert struct {
	alert serve.Alert
	read  time.Time
}

// subscriber is the one SSE connection on /v1/alerts/stream.
type subscriber struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	got    []sseAlert
	err    error
}

// subscribe opens the stream and returns once the server has
// confirmed it, so no alert raised afterwards can be missed.
func subscribe(url string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/alerts/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err == nil && !strings.HasPrefix(line, ": connected") {
		err = fmt.Errorf("first line is %q", line)
	}
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("alert stream did not confirm the subscription: %w", err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer client.CloseIdleConnections()
		defer resp.Body.Close()
		for {
			line, err := rd.ReadString('\n')
			now := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					s.fail(fmt.Errorf("alert stream: %w", err))
				}
				return
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var a serve.Alert
			if err := json.Unmarshal([]byte(data), &a); err != nil {
				s.fail(fmt.Errorf("alert stream: %w", err))
				return
			}
			s.mu.Lock()
			s.got = append(s.got, sseAlert{alert: a, read: now})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *subscriber) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// close waits up to sseGrace for want alerts, then hangs up.
func (s *subscriber) close(want int) ([]sseAlert, error) {
	for deadline := time.Now().Add(sseGrace); s.count() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.cancel()
	s.wg.Wait()
	return s.got, s.err
}

// runPaced is the open loop: 100 POST/s of sh.batch records into one
// server that writes every batch and alert to a ledger on disk before
// it answers, with one SSE subscriber and a checkpoint every second.
func runPaced(p *prepared, sh shape, orc *oracle, seconds float64, outDir string, out *outcome) (*pacedStats, error) {
	dir, err := os.MkdirTemp(outDir, "paced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ledgerPath := filepath.Join(dir, lifecycle.LedgerFile)
	led, _, err := ledger.Open(ledgerPath, ledger.Config{})
	if err != nil {
		return nil, err
	}
	defer led.Close()

	cfg := serveConfig(serveShards)
	cfg.Ledger = led
	f := newServeFront(p.ds.model, cfg)
	defer f.close()
	ckpt := lifecycle.NewCheckpointer(f.servers[0], lifecycle.CheckpointerConfig{Dir: dir, Ledger: led})
	sub, err := subscribe(f.url)
	if err != nil {
		return nil, err
	}
	defer sub.close(0) // error paths; a second close is a no-op

	n := int(seconds/pacedInterval.Seconds() + 0.5)
	if n > len(p.bodies) {
		n = len(p.bodies)
	}
	if n < 1 {
		n = 1
	}
	records := 0
	firsts := make([]time.Time, n)
	for i := range firsts {
		firsts[i] = p.bodies[i].first
		records += p.bodies[i].n
	}

	st := &pacedStats{}
	stop := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		t := time.NewTicker(checkpointInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				t0 := time.Now()
				info, err := ckpt.CheckpointNow()
				st.checkpointMS = append(st.checkpointMS, ms(time.Since(t0)))
				st.checkpointBytes = float64(info.Size)
				out.op(err)
			}
		}
	}()

	start, late, done := openLoop(n, pacedInterval, func(i int) {
		out.op(f.post(&p.bodies[i], sh.text))
	})
	elapsed := (time.Duration(n-1)*pacedInterval + done[n-1]).Seconds()
	close(stop)
	ckptWG.Wait()

	want := linesBefore(orc.ref, records)
	got, err := sub.close(len(want))
	if err != nil {
		return nil, err
	}
	diff, err := orc.check(f, records)
	if err != nil {
		return nil, err
	}
	out.mismatch("GET /v1/alerts", diff)

	// Every alert the server lists must have reached the subscriber.
	streamed := make([]string, len(got))
	for i, a := range got {
		streamed[i] = cluster.CanonicalAlertLine(cluster.Alert{Alert: a.alert})
		b := batchFor(firsts, a.alert.At)
		if b < 0 {
			return nil, fmt.Errorf("alert at %v precedes the first batch", a.alert.At)
		}
		due := start.Add(time.Duration(b) * pacedInterval)
		if a.read.Before(due) && b > 0 {
			// Read before the later of two batches sharing its second
			// was even due: the earlier one raised it.
			due = due.Add(-pacedInterval)
		}
		st.alertMS = append(st.alertMS, ms(a.read.Sub(due)))
	}
	sort.Strings(streamed)
	for i := len(streamed); i < len(want); i++ {
		out.op(errors.New("alert listed by /v1/alerts never reached the SSE subscriber"))
	}
	for range streamed {
		out.op(nil)
	}
	if len(streamed) >= len(want) {
		out.mismatch("SSE stream", firstDiff(streamed, want))
	}

	raw, err := f.get("/metrics")
	if err != nil {
		return nil, err
	}
	st.counters = parseCounters(raw)

	// The read side: the newest checkpoint restores into a fresh
	// server, an entry proves its inclusion, and the file verifies.
	if len(st.checkpointMS) > 0 {
		fresh := serve.New(p.ds.model, serveConfig(serveShards))
		t0 := time.Now()
		cp, _, found, err := lifecycle.LoadCheckpointFromLedger(led)
		if err == nil && !found {
			err = errors.New("the ledger holds none")
		}
		if err == nil {
			err = fresh.RestoreShards(cp.Shards)
		}
		st.restoreMS = ms(time.Since(t0))
		fresh.Close()
		if err != nil {
			return nil, fmt.Errorf("restore from the ledger's newest checkpoint: %w", err)
		}
	}
	t0 := time.Now()
	proof, err := led.ProofOf(0)
	st.proofUS = us(time.Since(t0))
	if err == nil {
		err = proof.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("inclusion proof of the first entry: %w", err)
	}
	entries, commits := led.Entries(), led.Commits()
	f.close()
	if err := led.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	sum, err := ledger.VerifyFile(ledger.OS, ledgerPath, nil)
	st.verifyMS = ms(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("ledger verify: %w", err)
	}
	if wantEntries := int64(n + len(want) + len(st.checkpointMS)); entries != wantEntries || int64(sum.Entries) != wantEntries {
		out.mismatch("ledger", fmt.Sprintf("%d entries appended, %d verified on disk, want %d = %d batches + %d alerts + %d checkpoints",
			entries, sum.Entries, wantEntries, n, len(want), len(st.checkpointMS)))
	}
	fi, err := os.Stat(ledgerPath)
	if err != nil {
		return nil, err
	}
	st.appendsPerFsync = float64(entries) / float64(commits)
	st.bytesPerEntry = float64(fi.Size()) / float64(entries)

	st.ackMS = durationsMS(done)
	for _, d := range late {
		st.lateUS = append(st.lateUS, us(d))
	}
	out.e2e.set("records_per_s", float64(records)/elapsed)
	out.e2e.set("op_ms_p50", median(st.ackMS))
	ackTail, alertTail := supportedPercentile(n), supportedPercentile(len(st.alertMS))
	out.notef("op_ms_p50: due time to HTTP 200 (batch processed and in the ledger), n=%d, p%g=%.3f ms",
		n, ackTail, percentile(st.ackMS, ackTail))
	out.notef("alert latency: due time of the causing batch to the SSE data line, n=%d, p50=%.3f ms, p%g=%.3f ms",
		len(st.alertMS), median(st.alertMS), alertTail, percentile(st.alertMS, alertTail))
	out.notef("generator lateness: p50=%.1f us, p%g=%.1f us; %d checkpoints, p50=%.3f ms",
		median(st.lateUS), ackTail, percentile(st.lateUS, ackTail), len(st.checkpointMS), median(st.checkpointMS))
	if lateTail := percentile(st.lateUS, 99) / 1000; lateTail > 0.1*median(st.ackMS) {
		out.notef("INVALID RUN: generator lateness p99 %.3f ms exceeds 10%% of op_ms_p50 %.3f ms; the host stalled the generator",
			lateTail, median(st.ackMS))
	}
	return st, nil
}

// parseCounters reads unlabelled samples out of a Prometheus text
// exposition.
func parseCounters(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}
