// Package analysis is a self-contained static-analysis framework in
// the spirit of golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast, go/parser, go/token and go/types (this
// repo vendors no third-party modules). It exists to turn the
// concurrency, determinism, allocation and error-wrapping contracts
// written down in DESIGN.md — an acyclic lock order, bit-identical
// deterministic pipelines, allocation-free hot paths and %w sentinel
// wrapping — into machine-checked invariants that run on every build
// via cmd/bglvet.
//
// The shape mirrors x/tools deliberately (Analyzer, Pass, Diagnostic,
// an analysistest-style corpus runner) so the suite can migrate to
// the real framework wholesale if the module ever takes on the
// dependency; the one addition is Analyzer.Finish, a whole-program
// hook used for cross-package invariants such as the lock-ordering
// graph and hot-path call closures.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings, command-line flags and
	// //bglvet:ignore suppression comments.
	Name string
	// Doc is the one-paragraph contract statement shown by bglvet -help.
	Doc string
	// Run analyzes a single package and reports findings via
	// pass.Report. Its result value (may be nil) is collected per
	// package and handed to Finish.
	Run func(pass *Pass) (any, error)
	// Finish, when non-nil, runs once after every package has been
	// analyzed, seeing all per-package Run results — the hook for
	// whole-program invariants (e.g. no lock-order cycle across
	// packages). Findings are reported through report.
	Finish func(results []PkgResult, report func(Finding))
}

// PkgResult pairs a package path with its Run result for Finish.
type PkgResult struct {
	Path   string
	Result any
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding inside the package under analysis.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// SuggestedFix, when non-empty, is the mechanical remedy ("wrap
	// with %w instead of %v"); bglvet prints it after the message.
	SuggestedFix string
}

// Finding is a resolved diagnostic: position translated, analyzer
// attached, suppression applied. This is what the runner and bglvet
// traffic in.
type Finding struct {
	Analyzer     string
	Pos          token.Position
	Message      string
	SuggestedFix string
}

// String renders a finding the way bglvet prints it.
func (f Finding) String() string {
	s := f.Pos.String() + ": [" + f.Analyzer + "] " + f.Message
	if f.SuggestedFix != "" {
		s += " (fix: " + f.SuggestedFix + ")"
	}
	return s
}
