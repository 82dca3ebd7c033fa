package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// IgnorePrefix is the in-source suppression marker. A comment of the
// form
//
//	//bglvet:ignore <analyzer> <reason>
//
// placed on the offending line (trailing) or on the line immediately
// above silences that analyzer's findings on that line. The reason is
// mandatory — an unexplained suppression is itself a finding — and an
// ignore that silences nothing is reported as stale, so suppressions
// cannot outlive the code they excuse.
const IgnorePrefix = "//bglvet:ignore"

// ignore is one parsed suppression comment.
type ignore struct {
	LineKey
	analyzer string
	used     bool
	// broken marks a malformed or unknown-analyzer ignore; it is
	// reported directly and exempt from staleness.
	broken bool
}

// LineKey addresses findings, ignores and // want comments by file and
// line.
type LineKey struct {
	File string
	Line int
}

// scanIgnores parses every suppression comment in a package.
// known is the full analyzer registry (not just the enabled set), so
// disabling an analyzer for a run does not misreport its ignores as
// referring to an unknown checker.
func scanIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Finding)) map[LineKey][]*ignore {
	out := make(map[LineKey][]*ignore)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ig := &ignore{LineKey: LineKey{pos.Filename, pos.Line}}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					ig.broken = true
					report(Finding{
						Analyzer: MetaName, Pos: pos,
						Message:      "malformed ignore: missing analyzer name and reason",
						SuggestedFix: fmt.Sprintf("write %q", IgnorePrefix+" <analyzer> <reason>"),
					})
				case len(fields) == 1:
					ig.broken = true
					report(Finding{
						Analyzer: MetaName, Pos: pos,
						Message: fmt.Sprintf("ignore for %q has no reason; unexplained suppressions are not allowed", fields[0]),
					})
				case !known[fields[0]]:
					ig.broken = true
					report(Finding{
						Analyzer: MetaName, Pos: pos,
						Message: fmt.Sprintf("ignore names unknown analyzer %q", fields[0]),
					})
				default:
					ig.analyzer = fields[0]
				}
				out[ig.LineKey] = append(out[ig.LineKey], ig)
			}
		}
	}
	return out
}

// positionOf rebuilds a printable position for an ignore comment.
func positionOf(ig *ignore) token.Position {
	return token.Position{Filename: ig.File, Line: ig.Line}
}

// suppressed consumes a matching ignore for a finding, if one exists
// on the finding's line or the line above.
func suppressed(ignores map[LineKey][]*ignore, f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, ig := range ignores[LineKey{f.Pos.Filename, line}] {
			if !ig.broken && ig.analyzer == f.Analyzer {
				ig.used = true
				return true
			}
		}
	}
	return false
}
