// Package analysistest runs an analyzer over a testdata corpus and
// checks its findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (which this module does
// not depend on).
//
// Corpus layout: <analyzer package>/testdata/src/<name>/*.go, loaded
// as import path <name>. Corpus files may import real module packages
// ("bglpred/internal/faultinject") — the loader resolves them against
// the enclosing module — so positive and negative cases exercise the
// analyzers against the genuine types they guard.
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
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bglpred/internal/analysis"
)

var (
	loaderMu sync.Mutex
	loaders  = make(map[string]*analysis.Loader)
)

// loaderFor returns the (cached) loader whose extra roots cover every
// package under the given testdata/src directory.
func loaderFor(t *testing.T, srcRoot string) *analysis.Loader {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	if l, ok := loaders[srcRoot]; ok {
		return l
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	l.ExtraRoots = make(map[string]string)
	entries, err := os.ReadDir(srcRoot)
	if err != nil {
		t.Fatalf("analysistest: reading %s: %v", srcRoot, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			l.ExtraRoots[e.Name()] = filepath.Join(srcRoot, e.Name())
		}
	}
	loaders[srcRoot] = l
	return l
}

// Run analyzes the corpus packages named by pkgs (default: every
// package under testdata/src) and checks findings against their want
// comments. It returns the unsuppressed findings for extra assertions.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) []analysis.Finding {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := loaderFor(t, srcRoot)
	if len(pkgs) == 0 {
		for name := range l.ExtraRoots {
			pkgs = append(pkgs, name)
		}
	}
	var loaded []*analysis.Package
	for _, name := range pkgs {
		pkg, err := l.Load(name)
		if err != nil {
			t.Fatalf("analysistest: loading corpus %q: %v", name, err)
		}
		loaded = append(loaded, pkg)
	}
	suite := &analysis.Suite{Analyzers: []*analysis.Analyzer{a}}
	findings, err := suite.Run(loaded)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	checkWants(t, loaded, findings)
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
	wants := make(map[lineKey][]*want)
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
						k := lineKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &want{re: re})
					}
				}
			}
		}
	}
	for _, f := range findings {
		k := lineKey{f.Pos.Filename, f.Pos.Line}
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
				t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
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
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		t.Fatalf("analysistest: %s is not a package of module %s", path, l.ModulePath)
	}
	names, err := filepath.Glob(filepath.Join(l.ModuleDir, filepath.FromSlash(rel), "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		write(filepath.Base(name), data)
	}
	if planted != "" {
		write("planted.go", []byte(planted))
	}
	l.ExtraRoots = map[string]string{path: dir}
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	suite := &analysis.Suite{Analyzers: []*analysis.Analyzer{a}}
	findings, err := suite.Run([]*analysis.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return findings
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
	t.Errorf("no finding matched %q; findings: %v", pattern, fmt.Sprint(findings))
}
