// Command bglpredict runs the full three-phase study on a RAS log:
// Phase 1 preprocessing, then 10-fold cross-validation of the
// statistical, rule-based, and meta-learning predictors across
// prediction windows (paper §3).
//
// Usage:
//
//	bglpredict anl.raslog
//	bglpredict -folds 5 -windows 5m,30m,1h -policy union anl.raslog
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/report"
)

func parseWindows(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parsePolicy(s string) (predictor.Policy, error) {
	for _, p := range []predictor.Policy{
		predictor.PolicyCoverage, predictor.PolicyStrictCoverage,
		predictor.PolicyMaxConfidence, predictor.PolicyRulePriority,
		predictor.PolicyUnion,
	} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

func main() {
	folds := flag.Int("folds", 10, "cross-validation folds")
	windowsFlag := flag.String("windows", "", "comma-separated prediction windows (default 5m..60m)")
	policyFlag := flag.String("policy", "coverage", "meta policy: coverage, strict-coverage, max-confidence, rule-priority, union")
	ruleWindow := flag.Duration("rule-window", 0, "fixed rule-generation window (default: auto-select)")
	minSupport := flag.Float64("min-support", 0, "rule-mining minimum support (0 = default 0.01; the paper states 0.04, see DESIGN.md)")
	predictorsFlag := flag.String("predictors", "", "comma-separated base predictors the meta-learner arbitrates (e.g. rule,stat,ecg); empty = the paper's statistical+rule pair")
	rules := flag.Bool("rules", false, "print the mined rule list")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bglpredict [flags] <log file>")
		os.Exit(2)
	}

	windows, err := parseWindows(*windowsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglpredict: %v\n", err)
		os.Exit(2)
	}
	policy, err := parsePolicy(*policyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglpredict: %v\n", err)
		os.Exit(2)
	}
	var selection []string
	if strings.TrimSpace(*predictorsFlag) != "" {
		selection, err = predictor.Resolve(strings.Split(*predictorsFlag, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bglpredict: -predictors: %v\n", err)
			os.Exit(2)
		}
	}

	events, err := raslog.ReadAnyFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglpredict: %v\n", err)
		os.Exit(1)
	}
	raslog.SortEvents(events)

	cfg := core.Config{Folds: *folds, Policy: policy, Predictors: selection}
	cfg.Rule.RuleGenWindow = *ruleWindow
	cfg.Rule.MinSupport = *minSupport
	pipeline := core.New(cfg)

	rep, err := pipeline.Run(events, windows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglpredict: %v\n", err)
		os.Exit(1)
	}

	st := rep.Preprocess.Stats
	fmt.Printf("phase 1: %d raw records -> %d unique events (%d fatal)\n\n",
		st.Input, st.AfterSpatial, st.FatalUnique)

	t4 := report.NewTable("Compressed fatal events by category", "category", "count")
	for _, m := range catalog.Mains() {
		t4.AddRow(m, rep.FatalByMain[m])
	}
	fmt.Println(t4.Render())

	fmt.Printf("Statistical predictor ((5min, 1h] window): precision=%.4f recall=%.4f\n\n",
		rep.Evaluation.Statistical.MeanPrecision, rep.Evaluation.Statistical.MeanRecall)
	fmt.Println(report.SweepTable("Rule-based predictor", rep.Evaluation.RuleSweep).Render())
	allZero := true
	for _, pt := range rep.Evaluation.RuleSweep {
		if pt.Result.Pooled.Warnings > 0 {
			allZero = false
		}
	}
	if allZero {
		fmt.Println("note: no association rules fired during cross-validation; the log is" +
			"\n      likely too small to clear the mining thresholds (the paper used 14-15" +
			"\n      months of data). Generate a larger log or lower -rule thresholds.")
	}
	fmt.Println(report.SweepTable(fmt.Sprintf("Meta-learning predictor (policy %s)", policy), rep.Evaluation.MetaSweep).Render())

	if *rules {
		trained, err := pipeline.Train(rep.Preprocess.Events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bglpredict: %v\n", err)
			os.Exit(1)
		}
		rule := trained.Meta.Rule
		if rule == nil {
			fmt.Println("no rules: -predictors selects no rule base")
			return
		}
		rt := report.NewTable(
			fmt.Sprintf("Mined rules (window %v)", rule.ChosenWindow()), "rule")
		for _, r := range rule.Rules().Rules {
			rt.AddRow(r.Format(func(it int) string {
				if s, ok := catalog.ByID(it); ok {
					return s.Name
				}
				return fmt.Sprint(it)
			}))
		}
		fmt.Println(rt.Render())
	}
}
