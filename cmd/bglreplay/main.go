// Command bglreplay replays a raw RAS log through the online
// prediction engine, exactly as a live CMCS feed would drive it: the
// first part of the log trains the meta-learner, the remainder streams
// through record by record, and every alert is printed with its
// eventual verdict (did a fatal event follow within the window?).
//
// With -url it becomes a load generator instead: the live portion is
// POSTed in batches to a running bglserved daemon at a configurable
// multiple of log time (-speedup 0 replays as fast as the daemon
// accepts), then the daemon's /v1/alerts view is summarized.
//
// Usage:
//
//	bglreplay anl.raslog
//	bglreplay -train 0.7 -window 20m -min-confidence 0.5 -v anl.raslog
//	bglreplay -url http://localhost:8650 -train 0 -speedup 3600 anl.raslog
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"bglpred/internal/cluster"
	"bglpred/internal/core"
	"bglpred/internal/eval"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/report"
	"bglpred/internal/serve"
)

func main() {
	trainFrac := flag.Float64("train", 0.8, "fraction of the log used for training (0,1); with -url, 0 replays the whole log")
	window := flag.Duration("window", 30*time.Minute, "prediction window")
	minConf := flag.Float64("min-confidence", 0, "suppress alerts below this confidence")
	verbose := flag.Bool("v", false, "print every alert")
	url := flag.String("url", "", "replay against a bglserved daemon (or bglgate) at this base URL instead of a local engine; a comma-separated list partitions records across the bases by location, consistent with the gate ring")
	speedup := flag.Float64("speedup", 0, "with -url, log-time-to-wall-time ratio (0 = as fast as possible)")
	batch := flag.Int("batch", 500, "with -url, records per POST /v1/ingest request")
	wire := flag.String("wire", "text", "with -url, ingest wire format: text (pipe dialect) or bin (binary wire frames)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bglreplay [flags] <log file>")
		os.Exit(2)
	}
	if *trainFrac <= 0 || *trainFrac >= 1 {
		if !(*url != "" && *trainFrac == 0) {
			fmt.Fprintln(os.Stderr, "bglreplay: -train must be in (0,1)")
			os.Exit(2)
		}
	}

	events, err := raslog.ReadAnyFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglreplay: %v\n", err)
		os.Exit(1)
	}
	raslog.SortEvents(events)
	cut := int(float64(len(events)) * *trainFrac)
	trainRaw, liveRaw := events[:cut], events[cut:]

	if *wire != "text" && *wire != "bin" {
		fmt.Fprintln(os.Stderr, "bglreplay: -wire must be text or bin")
		os.Exit(2)
	}
	if *url != "" {
		// Load-generator mode: the daemon trained itself; only the
		// live portion is replayed, over HTTP.
		if err := replayRemote(splitURLs(*url), liveRaw, *speedup, *batch, *wire == "bin"); err != nil {
			fmt.Fprintf(os.Stderr, "bglreplay: %v\n", err)
			os.Exit(1)
		}
		return
	}

	pipeline := core.New(core.Config{})
	pre := pipeline.Preprocess(trainRaw)
	trained, err := pipeline.Train(pre.Events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglreplay: training: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trained on %d records (%d unique): %d rules (window %v), triggers %v\n\n",
		len(trainRaw), len(pre.Events), trained.Rule.Rules().Len(),
		trained.Rule.ChosenWindow(), trained.Statistical.Triggers())

	var alerts []predictor.Warning
	engine := online.New(trained.Meta, online.Config{
		Window: *window,
		OnAlert: func(w predictor.Warning) {
			if w.Confidence < *minConf {
				return
			}
			alerts = append(alerts, w)
			if *verbose {
				fmt.Printf("%s  ALERT conf=%.2f [%s] %s\n",
					w.At.Format(time.DateTime), w.Confidence, w.Source, w.Detail)
			}
		},
	})

	var unique []preprocess.Event
	for i := range liveRaw {
		ing, err := engine.Ingest(&liveRaw[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bglreplay: %v\n", err)
			os.Exit(1)
		}
		if ing.Unique {
			unique = append(unique, preprocess.Event{
				Event: liveRaw[i], Sub: ing.Sub, Count: 1, Locations: 1,
			})
		}
	}

	o := eval.Match(alerts, unique)
	c := engine.Counters()
	fmt.Printf("replayed %d records -> %d unique; %d alerts (+%d renewals), %d suppressed by confidence gate\n",
		c.Ingested, c.Unique, len(alerts), c.Renewals, int(c.Alerts)-len(alerts))
	fmt.Printf("outcome: %s\n\n", o)

	t := report.NewTable("Per-category coverage on the replayed tail",
		"category", "fatal", "predicted", "recall")
	for _, row := range eval.ByCategory(alerts, unique) {
		t.AddRow(row.Category, row.Total, row.Predicted, row.Recall())
	}
	fmt.Println(t.Render())

	if cdf := eval.LeadCDF(alerts, unique); cdf.N() > 0 {
		fmt.Printf("lead time: median %v, p90 %v, mean %v\n",
			cdf.Quantile(0.5).Round(time.Second),
			cdf.Quantile(0.9).Round(time.Second),
			cdf.Mean().Round(time.Second))
	}
}

// splitURLs breaks a comma-separated -url value into trimmed base
// URLs, dropping empty segments.
func splitURLs(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// replayRemote streams events to one or more daemons in batches,
// pacing wall time to log time divided by speedup, then summarizes
// the first daemon's alert view. With several base URLs the stream is
// partitioned by each record's rack/midplane location over the same
// consistent-hash ring a bglgate uses, so one midplane's records never
// split across bases — round-robin would break the partition invariant
// when the bases are bglserved backends rather than gates fronting one
// cluster. With bin set, batches go out as binary wire frames.
func replayRemote(bases []string, events []raslog.Event, speedup float64, batchSize int, bin bool) error {
	if len(bases) == 0 {
		return fmt.Errorf("no base URL")
	}
	if len(events) == 0 {
		return fmt.Errorf("nothing to replay")
	}
	if batchSize < 1 {
		batchSize = 1
	}
	// The ring's member order (sorted, deduplicated) is the index space
	// OwnerIndex routes into.
	ring := cluster.NewRing(bases, 0)
	bases = ring.Members()
	contentType := "application/octet-stream"
	if bin {
		contentType = raslog.WireContentType
	}
	wallStart := time.Now()
	logStart := events[0].Time
	var sent, requests int64
	var lastResp serve.IngestResponse

	// One buffered encoder per base; records accumulate per owner and
	// flush independently when their batch fills.
	type sink struct {
		buf     bytes.Buffer
		tw      *raslog.Writer
		ww      *raslog.WireWriter
		pending int
	}
	sinks := make([]*sink, len(bases))
	for i := range sinks {
		s := &sink{}
		if bin {
			s.ww = raslog.NewWireWriter(&s.buf)
		} else {
			s.tw = raslog.NewWriter(&s.buf)
		}
		sinks[i] = s
	}

	flush := func(i int) error {
		s := sinks[i]
		if s.pending == 0 {
			return nil
		}
		if bin {
			if err := s.ww.Flush(); err != nil {
				return err
			}
		} else {
			if err := s.tw.Flush(); err != nil {
				return err
			}
		}
		ingestURL := bases[i] + "/v1/ingest"
		resp, err := http.Post(ingestURL, contentType, bytes.NewReader(s.buf.Bytes()))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s: %s", ingestURL, resp.Status, body)
		}
		if err := json.Unmarshal(body, &lastResp); err != nil {
			return fmt.Errorf("bad ingest response: %w", err)
		}
		sent += int64(s.pending)
		requests++
		s.buf.Reset()
		s.pending = 0
		return nil
	}
	flushAll := func() error {
		for i := range sinks {
			if err := flush(i); err != nil {
				return err
			}
		}
		return nil
	}

	for i := range events {
		if speedup > 0 {
			target := wallStart.Add(time.Duration(float64(events[i].Time.Sub(logStart)) / speedup))
			if wait := time.Until(target); wait > 0 {
				// Flush everything pending so the daemons see events
				// before the pause, then sleep to the event's wall time.
				if err := flushAll(); err != nil {
					return err
				}
				time.Sleep(wait)
			}
		}
		owner := ring.OwnerIndexLocation(events[i].Location)
		s := sinks[owner]
		if bin {
			if err := s.ww.Write(&events[i]); err != nil {
				return err
			}
		} else {
			if err := s.tw.Write(&events[i]); err != nil {
				return err
			}
		}
		if s.pending++; s.pending >= batchSize {
			if err := flush(owner); err != nil {
				return err
			}
		}
	}
	if err := flushAll(); err != nil {
		return err
	}

	elapsed := time.Since(wallStart)
	fmt.Printf("replayed %d records to %s in %d requests over %v (%.0f records/s)\n",
		sent, strings.Join(bases, ", "), requests, elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds())
	if lastResp.RejectedTotal > 0 {
		fmt.Printf("daemon rejected %d records as out of log order\n", lastResp.RejectedTotal)
	}

	resp, err := http.Get(bases[0] + "/v1/alerts")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var alerts serve.AlertsResponse
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		return fmt.Errorf("bad alerts response: %w", err)
	}
	fmt.Printf("daemon state: %d alerts total, %d standing, %d in history ring\n",
		alerts.TotalAlerts, len(alerts.Standing), len(alerts.Recent))
	for _, a := range alerts.Standing {
		fmt.Printf("  standing shard=%d conf=%.2f [%s] until %s: %s\n",
			a.Shard, a.Confidence, a.Source, a.End.Format(time.DateTime), a.Detail)
	}
	return nil
}
