package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one (workload, metric) pair of two result files
// stands against the metric's bound.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of one metric in a (the parent) and b (the
// change). A median worse by more than the bound is a regression;
// where either side's own runs spread wider than the bound the pair is
// unresolved instead — unless the sides do not overlap at all, which
// settles it either way.
func judge(d metricDef, a, b series) (change float64, v verdict) {
	change = (b.Median - a.Median) / a.Median
	worse := change
	// cost is a series' range in lower-is-better terms.
	cost := func(s series) (lo, hi float64) { return s.Min, s.Max }
	if d.Better == "higher" {
		worse = -change
		cost = func(s series) (lo, hi float64) { return -s.Max, -s.Min }
	}
	aLo, aHi := cost(a)
	bLo, bHi := cost(b)
	spread := func(s series) float64 { return (s.Max - s.Min) / s.Median }
	switch {
	case bHi < aLo: // every run of b beats every run of a
		return change, verdictOK
	case worse > d.Bound && bLo > aHi: // every run of b is worse
		return change, verdictRegressed
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return change, verdictUnresolved
	case worse > d.Bound:
		return change, verdictRegressed
	}
	return change, verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns 1 if any pair regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "a: commit %s, %s, %s, GOMAXPROCS %d, seed %d, %g s x %d runs\n", a.Environment.Commit, a.Environment.GoVersion, a.Environment.CPU, a.Environment.GOMAXPROCS, a.Seed, a.Seconds, a.Runs)
	fmt.Fprintf(stdout, "b: commit %s, %s, %s, GOMAXPROCS %d, seed %d, %g s x %d runs\n\n", b.Environment.Commit, b.Environment.GoVersion, b.Environment.CPU, b.Environment.GOMAXPROCS, b.Seed, b.Seconds, b.Runs)
	fmt.Fprintf(stdout, "%-18s %-14s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric", "a median", "[a min, a max]", "b median", "[b min, b max]", "change", "bound", "verdict")
	regressed := false
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stdout, "%-18s missing from b\n", wa.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			change, v := judge(d, sa, sb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(stdout, "%-18s %-14s %12.4f %25s %12.4f %25s %+7.1f%% %5.0f%%  %s\n", wa.Name, d.Name,
				sa.Median, fmt.Sprintf("[%.4f, %.4f]", sa.Min, sa.Max),
				sb.Median, fmt.Sprintf("[%.4f, %.4f]", sb.Min, sb.Max), change*100, d.Bound*100, v)
		}
		// Failures and oracle results are counts: they must repeat exactly.
		v := verdictOK
		if wb.Failed > wa.Failed || (wa.Correct && !wb.Correct) {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(stdout, "%-18s %-14s %12d %25s %12d %25s %8s %6s  %s\n", wa.Name, "failed",
			wa.Failed, fmt.Sprintf("of %d", wa.Attempted), wb.Failed, fmt.Sprintf("of %d", wb.Attempted), "", "exact", v)
	}
	if regressed {
		return 1
	}
	return 0
}
