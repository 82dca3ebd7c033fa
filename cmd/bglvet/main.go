// Command bglvet runs the repo's invariant analyzers — the contracts
// prose can state but only a checker can keep:
//
//	determinism    no time.Now / global rand / unordered map iteration
//	               in the deterministic pipeline packages
//	hotpathalloc   no allocating constructs reachable from
//	               //bglvet:hotpath roots
//	lockorder      no cycles in the cross-package lock-ordering graph;
//	               no non-deferred Unlock skippable by an early return
//	wrapsentinel   sentinels wrapped with %w, compared with errors.Is
//
// Usage:
//
//	bglvet [-list] [-json] [-only a,b] [packages]
//
// -json switches output to one JSON object per finding per line,
// ordered by (file, line, analyzer) — the format the CI
// problem-matcher consumes to annotate pull-request diffs.
//
// bglvet hands its package arguments (default ./...) to go list
// unchanged, type-checks the module packages they match from source and
// everything they import from the go command's export data, then runs
// the whole-program checks (lock-order cycles, hot-path call closures)
// across every matched package at once, so it sees cross-package
// violations.
//
// Exit status: 0 clean, 1 findings, 64 usage or a package that fails
// to load.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run loads the packages, runs every analyzer over every (admitted)
// package, prints findings and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bglvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer subset to run")
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding per line (file, line, analyzer order)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bglvet [-list] [-json] [-only a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Packages are go list patterns; with none, checks \"./...\".\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 64
	}
	if *list {
		for _, a := range suite.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := suite.All()
	if *only != "" {
		known := suite.Known()
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(stderr, "bglvet: unknown analyzer %q (try -list)\n", name)
				return 64
			}
			for _, a := range suite.All() {
				if a.Name == name {
					analyzers = append(analyzers, a)
				}
			}
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bglvet: %v\n", err)
		return 64
	}

	s := &analysis.Suite{Analyzers: analyzers, Filter: suite.Filter, Known: suite.Known()}
	findings, err := s.Run(pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "bglvet: %v\n", err)
		return 64
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "bglvet: %v\n", err)
			return 64
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(stderr, "bglvet: %d finding(s) in %d package(s)\n", n, len(pkgs))
		return 1
	}
	return 0
}
