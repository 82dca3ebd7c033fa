package suite_test

import (
	"go/ast"
	"strings"
	"testing"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/hotpathalloc"
	"bglpred/internal/analysis/suite"
)

// TestZeroFindings runs the full bglvet suite over the whole module
// in-process and requires a clean bill: the tree stays at a
// zero-finding baseline, so any new violation (or newly stale ignore)
// fails the build here as well as in the CI bglvet job.
func TestZeroFindings(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	findings, err := suite.New().Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestHotpathRootsAnnotated pins the //bglvet:hotpath annotation set:
// the zero-finding gate above only fires when findings appear, so
// deleting a root marker would silently shrink hotpathalloc's closure
// to nothing. This test fails instead.
func TestHotpathRootsAnnotated(t *testing.T) {
	want := map[string][]string{
		"internal/raslog":    {"ReadFrame", "NextEvent", "DecodeEvent", "PeekWireEvent", "Read"},
		"internal/serve":     {"ingest"},
		"internal/online":    {"IngestBatch"},
		"internal/lifecycle": {"Observe"},
		"internal/cluster":   {"routeFrame"},
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for rel, fns := range want {
		pkg, err := l.Load("bglpred/" + rel)
		if err != nil {
			t.Fatal(err)
		}
		marked := make(map[string]bool)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(c.Text, hotpathalloc.HotpathMarker) {
						marked[fd.Name.Name] = true
					}
				}
			}
		}
		for _, fn := range fns {
			if !marked[fn] {
				t.Errorf("%s.%s lost its %s annotation", rel, fn, hotpathalloc.HotpathMarker)
			}
		}
	}
}

// TestFilterScopes pins the package-scoping policy.
func TestFilterScopes(t *testing.T) {
	cases := []struct {
		pkg, analyzer string
		want          bool
	}{
		{"bglpred/internal/preprocess", "determinism", true},
		{"bglpred/internal/experiments", "determinism", true},
		{"bglpred/internal/ecg", "determinism", true},
		{"bglpred/internal/serve", "determinism", false},
		{"bglpred/internal/online", "wrapsentinel", true},
		{"bglpred/internal/lifecycle", "wrapsentinel", true},
		{"bglpred/internal/serve", "lockorder", true},
		{"bglpred/internal/ledger", "lockorder", true},
		{"bglpred/internal/edge", "lockorder", true},
		{"bglpred/internal/raslog", "lockorder", false},
		{"bglpred/internal/lifecycle", "lockorder", true},
		{"bglpred/internal/assoc", "lockorder", false},
		{"bglpred/internal/raslog", "hotpathalloc", true},
		{"bglpred/internal/assoc", "hotpathalloc", false},
		{"bglpred/internal/online", "hotpathalloc", true},
		{"bglpred/internal/edge", "hotpathalloc", true},
		{"bglpred/internal/preprocess", "hotpathalloc", true},
		{"bglpred/internal/lifecycle", "hotpathalloc", true},
		{"bglpred/internal/cluster", "hotpathalloc", true},
		{"bglpred/internal/ledger", "hotpathalloc", false},
	}
	for _, c := range cases {
		if got := suite.Filter(c.pkg, c.analyzer); got != c.want {
			t.Errorf("Filter(%q, %q) = %v, want %v", c.pkg, c.analyzer, got, c.want)
		}
	}
}

// TestRegistryComplete pins the registry contents: every contract
// named in DESIGN.md section 8 has its checker present.
func TestRegistryComplete(t *testing.T) {
	want := []string{"determinism", "hotpathalloc", "lockorder", "wrapsentinel"}
	known := suite.Known()
	if len(known) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(known), len(want))
	}
	for _, name := range want {
		if !known[name] {
			t.Errorf("registry is missing %s", name)
		}
	}
}
