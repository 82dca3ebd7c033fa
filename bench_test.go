package bglpred

// One benchmark per paper table and figure (backed by the experiments
// registry DESIGN.md §4 indexes), plus micro-benchmarks for the
// batch stages: generation, classification, Phase 1 compression, rule
// mining per window, rule matching, base-predictor training. Serving,
// gate, durability and retraining costs are measured by `go run
// ./bench` (bench/README.md), not here.
//
// Benchmarks run at a reduced scale so `go test -bench=.` finishes in
// minutes; cmd/bglbench reproduces the same experiments at any scale.

import (
	"sync"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/experiments"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
)

const benchScale = 0.1

var benchCtxOnce struct {
	sync.Once
	ctx *experiments.Context
}

// benchCtx shares one generated dataset across all experiment benches.
func benchCtx() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtxOnce.ctx = experiments.NewContext(benchScale, 5)
	})
	return benchCtxOnce.ctx
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := benchCtx()
	// Warm the dataset cache outside the timer.
	if _, err := ctx.Dataset("ANL"); err != nil {
		b.Fatal(err)
	}
	if _, err := ctx.Dataset("SDSC"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// ---- Paper tables ------------------------------------------------------

func BenchmarkTable1_LogSummaries(b *testing.B)          { runExperiment(b, "table1") }
func BenchmarkTable3_Categorization(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkTable4_CompressedFatalEvents(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5_StatisticalPredictor(b *testing.B)  { runExperiment(b, "table5") }

// ---- Paper figures -----------------------------------------------------

func BenchmarkFigure2_GapCDF(b *testing.B)           { runExperiment(b, "figure2") }
func BenchmarkFigure3_AssociationRules(b *testing.B) { runExperiment(b, "figure3") }
func BenchmarkFigure4_RuleBasedSweep(b *testing.B)   { runExperiment(b, "figure4") }
func BenchmarkFigure5_MetaLearnerSweep(b *testing.B) { runExperiment(b, "figure5") }

// ---- Secondary experiments ---------------------------------------------

func BenchmarkRuleGenWindowSelection(b *testing.B) { runExperiment(b, "rulegen-sweep") }
func BenchmarkAblationPolicy(b *testing.B)         { runExperiment(b, "ablation-policy") }
func BenchmarkAblationMiner(b *testing.B)          { runExperiment(b, "ablation-miner") }
func BenchmarkAblationCompression(b *testing.B)    { runExperiment(b, "ablation-compression") }
func BenchmarkAblationSupport(b *testing.B)        { runExperiment(b, "ablation-support") }

// ---- Micro-benchmarks ---------------------------------------------------

func benchDataset(b *testing.B, system string) *experiments.Dataset {
	b.Helper()
	d, err := benchCtx().Dataset(system)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkGenerateANL(b *testing.B) {
	p := bglsim.ANLProfile().Scaled(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bglsim.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Events)), "records")
	}
}

func BenchmarkClassify(b *testing.B) {
	d := benchDataset(b, "ANL")
	c := catalog.NewClassifier()
	events := d.Gen.Events
	if len(events) > 100000 {
		events = events[:100000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			c.Classify(&events[j])
		}
	}
	b.ReportMetric(float64(len(events)), "records/op")
}

func BenchmarkPreprocess(b *testing.B) {
	d := benchDataset(b, "ANL")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.Run(d.Gen.Events, preprocess.Options{})
	}
	b.ReportMetric(float64(len(d.Gen.Events)), "records/op")
}

// BenchmarkRuleGeneration_* reproduces the §3.3 timing claim: rule
// generation cost grows with the rule-generation window (the paper
// measured 35 s at 5 min to 167 s at 1 h on 2007 hardware).
func benchRuleGeneration(b *testing.B, window time.Duration) {
	d := benchDataset(b, "ANL")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := predictor.NewRule()
		r.Config.RuleGenWindow = window
		if err := r.Train(d.Pre.Events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleGeneration_5min(b *testing.B)  { benchRuleGeneration(b, 5*time.Minute) }
func BenchmarkRuleGeneration_15min(b *testing.B) { benchRuleGeneration(b, 15*time.Minute) }
func BenchmarkRuleGeneration_30min(b *testing.B) { benchRuleGeneration(b, 30*time.Minute) }
func BenchmarkRuleGeneration_60min(b *testing.B) { benchRuleGeneration(b, time.Hour) }

// BenchmarkRuleMatching covers the paper's companion claim that "the
// rule matching process is trivial".
func BenchmarkRuleMatching(b *testing.B) {
	d := benchDataset(b, "ANL")
	r := predictor.NewRule()
	r.Config.RuleGenWindow = 15 * time.Minute
	if err := r.Train(d.Pre.Events); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Predict(d.Pre.Events, 30*time.Minute)
	}
	b.ReportMetric(float64(len(d.Pre.Events)), "events/op")
}

func BenchmarkStatisticalTrain(b *testing.B) {
	d := benchDataset(b, "ANL")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := predictor.NewStatistical()
		if err := s.Train(d.Pre.Events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetaPredict(b *testing.B) {
	d := benchDataset(b, "ANL")
	m := predictor.NewMeta()
	m.Rule.Config.RuleGenWindow = 15 * time.Minute
	if err := m.Train(d.Pre.Events); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(d.Pre.Events, 30*time.Minute)
	}
	b.ReportMetric(float64(len(d.Pre.Events)), "events/op")
}
