package analysis

import (
	"fmt"
	"sort"
)

// MetaName is the pseudo-analyzer findings about the suppression
// mechanism itself are attributed to (malformed, unknown-analyzer and
// stale ignores). Meta findings cannot be suppressed.
const MetaName = "bglvet"

// Suite is a set of analyzers plus the policy of which packages each
// one applies to.
type Suite struct {
	Analyzers []*Analyzer
	// Filter, when non-nil, reports whether an analyzer runs on a
	// package path. Whole-program Finish hooks always run, seeing the
	// results of exactly the packages the filter admitted.
	Filter func(pkgPath, analyzerName string) bool
	// Known is the full analyzer-name registry used to validate ignore
	// comments; defaults to the suite's own analyzers.
	Known map[string]bool
}

// Run analyzes pkgs with every analyzer, applies //bglvet:ignore
// suppressions, reports stale ignores, and returns the surviving
// findings sorted by position.
func (s *Suite) Run(pkgs []*Package) ([]Finding, error) {
	known := s.Known
	if known == nil {
		known = make(map[string]bool, len(s.Analyzers))
		for _, a := range s.Analyzers {
			known[a.Name] = true
		}
	}

	var findings []Finding
	report := func(f Finding) { findings = append(findings, f) }

	ignores := make(map[lineKey][]*ignore)
	enabled := make(map[string]bool, len(s.Analyzers))
	for _, a := range s.Analyzers {
		enabled[a.Name] = true
	}
	for _, pkg := range pkgs {
		for k, v := range scanIgnores(pkg.Fset, pkg.Files, known, report) {
			ignores[k] = append(ignores[k], v...)
		}
	}

	results := make(map[string][]PkgResult)
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			if s.Filter != nil && !s.Filter(pkg.Path, a.Name) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				report(Finding{
					Analyzer:     name,
					Pos:          pkg.Fset.Position(d.Pos),
					Message:      d.Message,
					SuggestedFix: d.SuggestedFix,
				})
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			results[a.Name] = append(results[a.Name], PkgResult{Path: pkg.Path, Result: res})
		}
	}
	for _, a := range s.Analyzers {
		if a.Finish != nil {
			a.Finish(results[a.Name], report)
		}
	}

	kept := findings[:0]
	for _, f := range findings {
		if f.Analyzer != MetaName && suppressed(ignores, f) {
			continue
		}
		kept = append(kept, f)
	}
	findings = kept

	// An ignore for an analyzer this run executed that silenced nothing
	// is stale: the offending code was fixed or moved, so the excuse
	// must go too. Ignores for disabled analyzers are left alone.
	var stale []Finding
	for _, igs := range ignores {
		for _, ig := range igs {
			if !ig.broken && !ig.used && enabled[ig.analyzer] {
				stale = append(stale, Finding{
					Analyzer:     MetaName,
					Pos:          positionOf(ig),
					Message:      fmt.Sprintf("stale ignore: no %s finding on this or the next line; delete the comment", ig.analyzer),
					SuggestedFix: "remove the //bglvet:ignore comment",
				})
			}
		}
	}
	findings = append(findings, stale...)

	// (file, line, analyzer) is the stable order bglvet -json
	// publishes; message breaks the remaining ties.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}
