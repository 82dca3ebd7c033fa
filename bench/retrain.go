package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bglpred/internal/core"
	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
	"bglpred/internal/model"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// retrainPipeline is the three-base configuration the retrain cycle
// mines, the widest the registry offers.
func retrainPipeline() core.Config {
	return core.Config{
		Rule:       predictor.RuleConfig{RuleGenWindow: ruleGenWindow},
		Predictors: []string{"statistical", "rule", "ecg"},
	}
}

// fillRecorder observes every record into a recorder sized never to
// prune, so each cycle mines the whole log.
func fillRecorder(events []raslog.Event) *lifecycle.Recorder {
	span := events[len(events)-1].Time.Sub(events[0].Time)
	rec := lifecycle.NewRecorder(2*span+time.Hour, len(events)+1)
	for i := range events {
		rec.Observe(events[i])
	}
	return rec
}

// runRetrain is the closed loop of RetrainNow over the full recorder:
// classify, compress, mine, package, persist, ledger, swap into an
// idle server. It returns each cycle's seconds.
func runRetrain(p *prepared, seconds float64, outDir string, out *outcome) ([]float64, error) {
	dir, err := os.MkdirTemp(outDir, "retrain-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	led, _, err := ledger.Open(filepath.Join(dir, lifecycle.LedgerFile), ledger.Config{})
	if err != nil {
		return nil, err
	}
	defer led.Close()
	srv := serve.New(p.ds.model, serveConfig(serveShards))
	defer srv.Close()
	rt := lifecycle.NewRetrainer(srv, p.recorder, lifecycle.RetrainerConfig{
		Pipeline: retrainPipeline(), Dir: dir, Ledger: led,
	})

	var cycles []float64
	rules := 0
	for timed := 0.0; timed < seconds; {
		t0 := time.Now()
		info, err := rt.RetrainNow()
		elapsed := time.Since(t0).Seconds()
		timed += elapsed
		cycles = append(cycles, elapsed)
		out.op(err)
		if err != nil {
			continue
		}
		if len(cycles) == 1 {
			rules = info.Rules
		}
		if info.Rules != rules || rules == 0 {
			out.mismatch(fmt.Sprintf("cycle %d", len(cycles)),
				fmt.Sprintf("mined %d rules, the first cycle mined %d over the same records", info.Rules, rules))
		}
	}
	art, _, err := model.Load(lifecycle.ModelPath(dir))
	if err == nil {
		_, err = art.Meta()
	}
	if err != nil {
		out.mismatch("saved artifact", err.Error())
	}
	if got, want := led.Entries(), int64(len(cycles)); got != want {
		out.mismatch("ledger", fmt.Sprintf("%d model entries after %d retrains", got, want))
	}

	out.e2e.set("records_per_s", float64(p.recorder.Len())/median(cycles))
	out.e2e.set("op_ms_p50", median(cycles)*1000)
	out.notef("op_ms_p50: RetrainNow over %d records, %d rules, n=%d cycles (min %.3f s, max %.3f s)",
		p.recorder.Len(), rules, len(cycles), minOf(cycles), maxOf(cycles))
	return cycles, nil
}
