package lockorder_test

import (
	"strings"
	"testing"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/analysistest"
	"bglpred/internal/analysis/lockorder"
)

func TestLockorderCorpus(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "a")
}

// TestCrossPackageCycle drives the Finish hook across a multi-package
// corpus: locka holds its lock while calling into lockc, lockb holds
// lockc's lock while calling into locka. No single package contains a
// cycle — only the whole-program graph stitched from the three
// summaries does.
func TestCrossPackageCycle(t *testing.T) {
	findings := analysistest.Run(t, lockorder.Analyzer, "lockc", "locka", "lockb")
	analysistest.MustContain(t, findings,
		`lock-order cycle: locka\.Mu → lockc\.Mu .*via lockc\.Touch.*lockc\.Mu → locka\.Mu .*via locka\.Touch`)
}

// TestNoCycleWithoutClosingPackage proves the cycle above is genuinely
// cross-package: analyzing lockc and locka without lockb (whose BA
// holds lockc.Mu into locka) leaves the graph acyclic.
func TestNoCycleWithoutClosingPackage(t *testing.T) {
	pkgs := analysistest.Load(t, analysistest.Corpus(t), "lockc", "locka")
	suite := &analysis.Suite{Analyzers: []*analysis.Analyzer{lockorder.Analyzer}}
	findings, err := suite.Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "cycle") {
			t.Errorf("cycle reported without the closing package: %v", f)
		}
	}
}

// runOn analyzes one synthesized package with lockorder and returns
// the surviving findings — the suppression-semantics harness.
func runOn(t *testing.T, src string) []analysis.Finding {
	return analysistest.RunSource(t, &analysis.Suite{Analyzers: []*analysis.Analyzer{lockorder.Analyzer}}, src)
}

// TestIgnoreSilencesExactlyOneFinding: two identical re-entry
// deadlocks, one reasoned ignore — exactly the annotated one goes
// quiet.
func TestIgnoreSilencesExactlyOneFinding(t *testing.T) {
	findings := runOn(t, `package a

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func excused(s *S) {
	s.mu.Lock()
	//bglvet:ignore lockorder corpus demonstration of single-finding suppression
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func unexcused(s *S) {
	s.mu.Lock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the unexcused site): %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "lockorder" || f.Pos.Line != 20 {
		t.Fatalf("surviving finding is not the unexcused site: %v", f)
	}
}

// TestStaleIgnoreReported: a lockorder ignore on clean code is itself
// a finding.
func TestStaleIgnoreReported(t *testing.T) {
	findings := runOn(t, `package a

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func clean(s *S) {
	//bglvet:ignore lockorder the deadlock here was fixed long ago
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
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

// plantedInversion takes lifecycle's two mutexes in opposite orders —
// the deadlock lockorder exists to catch, planted into the real
// package.
const plantedInversion = `package lifecycle

func plantedSlabFirst(sl *slab, rt *Retrainer) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
}

func plantedRetrainerFirst(sl *slab, rt *Retrainer) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sl.mu.Lock()
	defer sl.mu.Unlock()
}
`

// TestPlantedLifecycleInversion is lockorder's evidence on this tree:
// the real lifecycle package is clean, and two functions taking a
// recorder slab's lock and Retrainer.mu in opposite orders produce
// exactly one cycle naming both.
func TestPlantedLifecycleInversion(t *testing.T) {
	const path = "bglpred/internal/lifecycle"
	t.Run("unmodified", func(t *testing.T) {
		if findings := analysistest.RunOnCopy(t, lockorder.Analyzer, path, ""); len(findings) != 0 {
			t.Fatalf("unmodified lifecycle has findings: %v", findings)
		}
	})
	t.Run("planted", func(t *testing.T) {
		findings := analysistest.RunOnCopy(t, lockorder.Analyzer, path, plantedInversion)
		if len(findings) != 1 {
			t.Fatalf("got %d findings, want exactly 1 cycle: %v", len(findings), findings)
		}
		msg := findings[0].Message
		for _, want := range []string{"lock-order cycle", "lifecycle.(slab).mu", "lifecycle.(Retrainer).mu"} {
			if !strings.Contains(msg, want) {
				t.Errorf("finding %q does not name %q", msg, want)
			}
		}
	})
}
