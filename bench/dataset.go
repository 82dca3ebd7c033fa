package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/cluster"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

const (
	ruleGenWindow    = 15 * time.Minute
	predictionWindow = 30 * time.Minute
	// racks is why the dataset is not a stock profile: the calibrated
	// single-rack profiles emit two routing keys (R00-M0, R00-M1), so
	// at most two shards or backends ever see traffic. Four racks give
	// eight keys.
	racks = 4
)

// dataset is what every workload shares: one generated log, the model
// trained on its first half, and the second half as the live stream.
type dataset struct {
	all   []raslog.Event
	tail  []raslog.Event
	model *predictor.Meta
}

func buildDataset(scale float64, seed uint64) (*dataset, error) {
	p := bglsim.ANLProfile().Scaled(scale)
	p.Machine.Racks = racks
	p.Seed = seed
	gen, err := bglsim.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	cut := len(gen.Events) / 2
	m, err := trainMeta(preprocess.Run(gen.Events[:cut], preprocess.Options{}).Events)
	if err != nil {
		return nil, err
	}
	return &dataset{all: gen.Events, tail: gen.Events[cut:], model: m}, nil
}

// release drops the generated records and collects them.
func (d *dataset) release() {
	d.all, d.tail = nil, nil
	runtime.GC()
}

func trainMeta(events []preprocess.Event) (*predictor.Meta, error) {
	m := predictor.NewMeta()
	m.Rule.Config.RuleGenWindow = ruleGenWindow
	if err := m.Train(events); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if m.Rule.Rules().Len() == 0 {
		return nil, fmt.Errorf("train: no rules mined from %d unique events", len(events))
	}
	return m, nil
}

// body is one POST: a run of consecutive tail records in one dialect.
type body struct {
	data  []byte
	n     int       // records
	first time.Time // event time of its first record
}

const textContentType = "application/octet-stream"

func contentType(text bool) string {
	if text {
		return textContentType
	}
	return raslog.WireContentType
}

// recordWriter is the write side both codecs share.
type recordWriter interface {
	Write(*raslog.Event) error
	Flush() error
}

// encodeBodies cuts events into bodies of per records each.
func encodeBodies(events []raslog.Event, per int, text bool) ([]body, error) {
	out := make([]body, 0, (len(events)+per-1)/per)
	for lo := 0; lo < len(events); lo += per {
		hi := lo + per
		if hi > len(events) {
			hi = len(events)
		}
		var buf bytes.Buffer
		var w recordWriter = raslog.NewWireWriter(&buf)
		if text {
			w = raslog.NewWriter(&buf)
		}
		for i := lo; i < hi; i++ {
			if err := w.Write(&events[i]); err != nil {
				return nil, fmt.Errorf("encode record %d: %w", events[i].RecID, err)
			}
		}
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		out = append(out, body{data: buf.Bytes(), n: hi - lo, first: events[lo].Time})
	}
	return out, nil
}

// midplaneShard is serve's default routing (rack/midplane index modulo
// the shard count), restated here so the reference partitions the
// stream without asking the server how.
func midplaneShard(loc raslog.Location, shards int) int {
	mp := loc.MidplaneOf()
	switch mp.Kind {
	case raslog.KindUnknown:
		return 0
	case raslog.KindRack:
		return mp.Rack * 2 % shards
	}
	return (mp.Rack*2 + mp.Midplane) % shards
}

// refAlert is one alert the reference raised, with the index of the
// tail record that raised it, so a prefix of the stream has a
// reference too.
type refAlert struct {
	line string
	rec  int
}

func canonicalLine(w predictor.Warning) string {
	return cluster.CanonicalAlertLine(cluster.Alert{Alert: serve.Alert{
		At: w.At, Start: w.Start, End: w.End,
		Confidence: w.Confidence, Source: w.Source, Detail: w.Detail,
	}})
}

// newEngine is an engine configured as the servers configure theirs.
func newEngine(m *predictor.Meta, onAlert func(predictor.Warning)) *online.Engine {
	return online.New(m, online.Config{Window: predictionWindow, OnAlert: onAlert})
}

// reference replays events record by record through one engine per
// partition — the computation the served paths must reproduce however
// they batch, route and queue. It returns the alerts in raise order
// and the count of records an engine rejected.
func reference(m *predictor.Meta, events []raslog.Event, parts int, owner func(raslog.Location) int) ([]refAlert, int) {
	var out []refAlert
	cur := 0
	engines := make([]*online.Engine, parts)
	for i := range engines {
		engines[i] = newEngine(m, func(w predictor.Warning) { out = append(out, refAlert{line: canonicalLine(w), rec: cur}) })
	}
	rejected := 0
	for i := range events {
		cur = i
		if _, err := engines[owner(events[i].Location)].Ingest(&events[i]); err != nil {
			rejected++
		}
	}
	return out, rejected
}

// linesBefore returns the sorted lines of alerts raised by the first n
// records.
func linesBefore(ref []refAlert, n int) []string {
	var out []string
	for _, a := range ref {
		if a.rec < n {
			out = append(out, a.line)
		}
	}
	sort.Strings(out)
	return out
}

// firstDiff describes the first position where two sorted line lists
// disagree; "" when they are equal.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("alert %d of %d (reference has %d):\n  served:    %s\n  reference: %s", i+1, len(got), len(want), g, w)
		}
	}
	return ""
}

// uniqueSorted sorts lines and drops repeats. The gate's merged
// /v1/alerts collapses alerts two backends raise identically, so its
// stream is compared as a set.
func uniqueSorted(lines []string) []string {
	sort.Strings(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}
