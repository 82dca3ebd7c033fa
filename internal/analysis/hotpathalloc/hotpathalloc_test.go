package hotpathalloc_test

import (
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
	return analysistest.RunSource(t, &analysis.Suite{Analyzers: []*analysis.Analyzer{hotpathalloc.Analyzer}}, src)
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

// TestPlantedServeConcatenation is hotpathalloc's evidence on this
// tree: internal/serve as it stands gives no finding, and a string
// concatenation planted in a helper that a //bglvet:hotpath root
// reaches — the root also walking serve's real decode loop — gives
// exactly one.
func TestPlantedServeConcatenation(t *testing.T) {
	const path = "bglpred/internal/serve"
	t.Run("unmodified", func(t *testing.T) {
		if findings := analysistest.RunOnCopy(t, hotpathalloc.Analyzer, path, ""); len(findings) != 0 {
			t.Fatalf("unmodified serve has findings: %v", findings)
		}
	})
	t.Run("planted", func(t *testing.T) {
		findings := analysistest.RunOnCopy(t, hotpathalloc.Analyzer, path, `package serve

import "bglpred/internal/raslog"

//bglvet:hotpath
func (s *Server) plantedDecode(src recordSource, byShard [][]raslog.Event, resp *IngestResponse, via string) (int, int) {
	resp.Error = plantedTag(via)
	return s.decode(src, byShard, resp)
}

func plantedTag(via string) string {
	return "ingest via " + via
}
`)
		if len(findings) != 1 || !strings.Contains(findings[0].Message, "string concatenation on the hot path") {
			t.Fatalf("want exactly 1 finding for the planted concatenation, got %v", findings)
		}
	})
}
