// Package analysistest runs an analyzer over a testdata corpus and
// checks its findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (which this module does
// not depend on).
//
// Corpus layout: <analyzer package>/testdata/src/<name>/*.go, loaded
// as import path <name>. Corpus files may import sibling corpus
// packages, loaded from source, and real module packages
// ("bglpred/internal/faultinject"), read from the go command's export
// data, so positive and negative cases exercise the analyzers against
// the genuine types they guard.
//
// A finding on a line must be matched by a trailing comment on that
// line of the form
//
//	// want "regexp"
//
// (several quoted regexps allowed, each matching one finding). A
// finding with no matching want, or a want with no finding, fails the
// test.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bglpred/internal/analysis"
)

// Load type-checks the packages paths name: a key of roots from that
// directory, anything else as go list resolves it. Every import that is
// not a root comes from the go command's export data.
func Load(t *testing.T, roots map[string]string, paths ...string) []*analysis.Package {
	t.Helper()
	l := analysis.NewLoader()
	l.Roots = roots
	pkgs, err := l.Load(paths...)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return pkgs
}

// Corpus maps each package directory under testdata/src to its
// import path, the directory name.
func Corpus(t *testing.T) map[string]string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("analysistest: no corpus under testdata/src (%v)", err)
	}
	roots := make(map[string]string, len(dirs))
	for _, dir := range dirs {
		roots[filepath.Base(dir)] = dir
	}
	return roots
}

// Run analyzes the named corpus packages and checks findings against
// their want comments. It returns the unsuppressed findings for extra
// assertions.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) []analysis.Finding {
	t.Helper()
	loaded := Load(t, Corpus(t), pkgs...)
	findings := run(t, &analysis.Suite{Analyzers: []*analysis.Analyzer{a}}, loaded)
	checkWants(t, loaded, findings)
	return findings
}

// RunSource runs s over src, the single file of a package "a", and
// returns the surviving findings: the harness for suppression
// semantics.
func RunSource(t *testing.T, s *analysis.Suite, src string) []analysis.Finding {
	t.Helper()
	return runFiles(t, s, "a", map[string]string{"a.go": src})
}

// runFiles writes files into a fresh directory, loads it as package
// path and runs s over it.
func runFiles(t *testing.T, s *analysis.Suite, path string, files map[string]string) []analysis.Finding {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return run(t, s, Load(t, map[string]string{path: dir}, path))
}

func run(t *testing.T, s *analysis.Suite, pkgs []*analysis.Package) []analysis.Finding {
	t.Helper()
	findings, err := s.Run(pkgs)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return findings
}

var wantRE = regexp.MustCompile("^//\\s*want\\s+([\"`].*)$")

// checkWants compares findings to // want comments line by line.
func checkWants(t *testing.T, pkgs []*analysis.Package, findings []analysis.Finding) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[analysis.LineKey][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range splitQuoted(t, pos.String(), m[1]) {
						re, err := regexp.Compile(q)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
						}
						k := analysis.LineKey{File: pos.Filename, Line: pos.Line}
						wants[k] = append(wants[k], &want{re: re})
					}
				}
			}
		}
	}
	for _, f := range findings {
		k := analysis.LineKey{File: f.Pos.Filename, Line: f.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no finding matched want %q", k.File, k.Line, w.re)
			}
		}
	}
}

// splitQuoted parses the sequence of quoted regexps after "want";
// both double-quoted (escapes allowed) and backquoted (raw) forms
// work, as in strconv.Unquote.
func splitQuoted(t *testing.T, pos, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: malformed want clause at %q (expected quoted regexp)", pos, s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if quote == '"' && s[i] == '\\' {
				i++
				continue
			}
			if s[i] == quote {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s: unterminated want regexp in %q", pos, s)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, s[:end+1], err)
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		t.Fatalf("%s: want clause with no regexps", pos)
	}
	return out
}

// RunOnCopy runs one analyzer over a real module package — its
// non-test sources copied into a temp directory the loader serves
// under the package's own import path — plus planted.go when planted
// is non-empty. It is the harness for planted-bug tests: the analyzer
// must stay quiet on the package as it stands and catch the bug once
// it is planted.
func RunOnCopy(t *testing.T, a *analysis.Analyzer, path, planted string) []analysis.Finding {
	t.Helper()
	real := Load(t, nil, path)[0]
	files := make(map[string]string)
	for _, f := range real.Files {
		name := real.Fset.File(f.Pos()).Name()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = string(data)
	}
	if planted != "" {
		files["planted.go"] = planted
	}
	return runFiles(t, &analysis.Suite{Analyzers: []*analysis.Analyzer{a}}, path, files)
}

// MustContain asserts that some finding message matches the pattern —
// the hook corpus-free tests (e.g. Finish-hook duplicates) use.
func MustContain(t *testing.T, findings []analysis.Finding, pattern string) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for _, f := range findings {
		if re.MatchString(f.Message) {
			return
		}
	}
	t.Errorf("no finding matched %q; findings: %v", pattern, findings)
}
