package analysis_test

import (
	"strings"
	"testing"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/analysistest"
	"bglpred/internal/analysis/wrapsentinel"
)

// runOn analyzes one synthesized package with wrapsentinel and
// returns the surviving findings.
func runOn(t *testing.T, src string) []analysis.Finding {
	return analysistest.RunSource(t, &analysis.Suite{Analyzers: []*analysis.Analyzer{wrapsentinel.Analyzer}}, src)
}

// TestIgnoreSilencesExactlyOneFinding: two identical violations, one
// ignore — exactly the annotated one goes quiet.
func TestIgnoreSilencesExactlyOneFinding(t *testing.T) {
	findings := runOn(t, `package a

import (
	"errors"
	"fmt"
)

var ErrX = errors.New("x")

func excused() error {
	//bglvet:ignore wrapsentinel legacy message format, callers parse the string
	return fmt.Errorf("wrap: %v", ErrX)
}

func unexcused() error {
	return fmt.Errorf("wrap: %v", ErrX)
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the unexcused site): %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "wrapsentinel" || f.Pos.Line != 16 {
		t.Fatalf("surviving finding is not the unexcused site: %v", f)
	}
}

// TestTrailingIgnore: the suppression also works as a trailing
// comment on the offending line itself.
func TestTrailingIgnore(t *testing.T) {
	findings := runOn(t, `package a

import (
	"errors"
	"fmt"
)

var ErrX = errors.New("x")

func excused() error {
	return fmt.Errorf("wrap: %v", ErrX) //bglvet:ignore wrapsentinel legacy message format
}
`)
	if len(findings) != 0 {
		t.Fatalf("trailing ignore did not suppress: %v", findings)
	}
}

// TestStaleIgnoreReported: an ignore that silences nothing is itself
// a (meta) finding, so suppressions cannot outlive the code they
// excuse.
func TestStaleIgnoreReported(t *testing.T) {
	findings := runOn(t, `package a

import "errors"

var ErrX = errors.New("x")

//bglvet:ignore wrapsentinel this code was fixed long ago
var clean = ErrX
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 stale-ignore report: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != analysis.MetaName || !strings.Contains(f.Message, "stale ignore") {
		t.Fatalf("want a %s stale-ignore finding, got: %v", analysis.MetaName, f)
	}
	if f.Pos.Line != 7 {
		t.Fatalf("stale report at line %d, want the comment line 7", f.Pos.Line)
	}
}

// TestIgnoreWithoutReasonReported: the reason is mandatory.
func TestIgnoreWithoutReasonReported(t *testing.T) {
	findings := runOn(t, `package a

import (
	"errors"
	"fmt"
)

var ErrX = errors.New("x")

func excused() error {
	//bglvet:ignore wrapsentinel
	return fmt.Errorf("wrap: %v", ErrX)
}
`)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (broken ignore + unsuppressed finding): %v", len(findings), findings)
	}
	var sawNoReason, sawOriginal bool
	for _, f := range findings {
		if f.Analyzer == analysis.MetaName && strings.Contains(f.Message, "no reason") {
			sawNoReason = true
		}
		if f.Analyzer == "wrapsentinel" {
			sawOriginal = true
		}
	}
	if !sawNoReason || !sawOriginal {
		t.Fatalf("reasonless ignore must be reported and must not suppress: %v", findings)
	}
}

// TestUnknownAnalyzerIgnoreReported: the analyzer name must be real.
func TestUnknownAnalyzerIgnoreReported(t *testing.T) {
	findings := runOn(t, `package a

//bglvet:ignore nosuchchecker because reasons
var x = 1
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != analysis.MetaName || !strings.Contains(f.Message, "unknown analyzer") {
		t.Fatalf("want unknown-analyzer report, got: %v", f)
	}
}

// TestDisabledAnalyzerIgnoreNotStale: ignores for analyzers that
// exist in the registry but did not run this invocation are left
// alone — a -only subset run must not flag the others' excuses.
func TestDisabledAnalyzerIgnoreNotStale(t *testing.T) {
	findings := analysistest.RunSource(t, &analysis.Suite{
		Analyzers: []*analysis.Analyzer{wrapsentinel.Analyzer},
		Known:     map[string]bool{"wrapsentinel": true, "determinism": true},
	}, `package a

//bglvet:ignore determinism wall-clock measurement is the point
var x = 1
`)
	if len(findings) != 0 {
		t.Fatalf("ignore for a disabled analyzer misreported: %v", findings)
	}
}
