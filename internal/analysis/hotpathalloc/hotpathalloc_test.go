package hotpathalloc_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/analysistest"
	"bglpred/internal/analysis/hotpathalloc"
)

func TestHotpathallocCorpus(t *testing.T) {
	analysistest.Run(t, hotpathalloc.Analyzer, "a")
}

// TestCrossPackageClosure: the root is annotated in hota, the
// allocation sits in hotb — the closure must cross the package
// boundary through the Finish hook's stitched summaries.
func TestCrossPackageClosure(t *testing.T) {
	findings := analysistest.Run(t, hotpathalloc.Analyzer, "hota", "hotb")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (hotb.Sum's slice literal): %v", len(findings), findings)
	}
}

// runOn analyzes one synthesized package and returns the surviving
// findings — the suppression-semantics harness.
func runOn(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.ExtraRoots = map[string]string{"a": dir}
	pkg, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	s := &analysis.Suite{Analyzers: []*analysis.Analyzer{hotpathalloc.Analyzer}}
	findings, err := s.Run([]*analysis.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestIgnoreSilencesExactlyOneFinding: two identical allocations on
// the hot path, one reasoned ignore — only the annotated one goes
// quiet. Suppression must reach findings reported by the Finish hook,
// not just per-package Run diagnostics.
func TestIgnoreSilencesExactlyOneFinding(t *testing.T) {
	findings := runOn(t, `package a

//bglvet:hotpath
func Root(b []byte) int {
	//bglvet:ignore hotpathalloc intern-miss copy, amortized by the hit path
	excused := string(b)
	unexcused := string(b)
	return len(excused) + len(unexcused)
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the unexcused conversion): %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "hotpathalloc" || f.Pos.Line != 7 {
		t.Fatalf("surviving finding is not the unexcused conversion: %v", f)
	}
}

// TestStaleIgnoreReported: a hotpathalloc ignore outside any hot
// closure silences nothing and is reported.
func TestStaleIgnoreReported(t *testing.T) {
	findings := runOn(t, `package a

func cold(b []byte) string {
	//bglvet:ignore hotpathalloc this function used to be hot
	return string(b)
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 stale-ignore report: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != analysis.MetaName || !strings.Contains(f.Message, "stale ignore") {
		t.Fatalf("want a stale-ignore meta finding, got: %v", f)
	}
}
