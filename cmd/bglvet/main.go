// Command bglvet runs the repo's invariant analyzers — the contracts
// prose can state but only a checker can keep:
//
//	callbacklock   no callback invocation while a struct's lock is held
//	determinism    no time.Now / global rand / unordered map iteration
//	               in the deterministic pipeline packages
//	faultpoint     fault-injection sites tolerate a nil injector;
//	               fault-point names unique repo-wide
//	goroutinelife  every spawned goroutine carries a join or cancel
//	               discipline (WaitGroup, ctx.Done/close channel, or a
//	               result channel the spawner receives from)
//	hotpathalloc   no allocating constructs reachable from
//	               //bglvet:hotpath roots
//	lockorder      no cycles in the cross-package lock-ordering graph;
//	               no non-deferred Unlock skippable by an early return
//	wrapsentinel   sentinels wrapped with %w, compared with errors.Is
//
// Two modes:
//
//	bglvet [flags] [packages]       standalone, whole-program (CI mode)
//	go vet -vettool=$(which bglvet) ./...
//
// -json switches standalone output to one JSON object per finding per
// line, ordered by (file, line, analyzer) — the format the CI
// problem-matcher consumes to annotate pull-request diffs.
//
// Standalone mode loads the entire module from source and runs the
// whole-program checks (fault-point uniqueness, lock-order cycles,
// hot-path call closures) across every package at once; this is the
// mode CI runs and the only one that sees cross-package violations.
// Under go vet the tool speaks the vettool protocol (-V=full handshake,
// unit .cfg files) and checks one compilation unit at a time, so
// cross-package checks degrade to per-package.
//
// Exit status: 0 clean, 1 findings (standalone), 2 findings or
// protocol error (vettool mode, matching unitchecker), 64 usage.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/suite"
)

func main() {
	args := os.Args[1:]
	// go vet's handshake and unit-file invocations come before flag
	// parsing, exactly as x/tools' unitchecker arranges it.
	if len(args) == 1 && args[0] == "-V=full" {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// go vet's flag-discovery probe: a JSON inventory of tool flags.
		// bglvet takes none in vettool mode.
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	os.Exit(standalone(args))
}

// printVersion answers go vet's -V=full probe; the content hash makes
// the build cache invalidate when the tool changes.
func printVersion() {
	var id string
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:12])
		}
	}
	if id == "" {
		id = "unknown"
	}
	fmt.Printf("bglvet version devel buildID=%s\n", id)
}

// standalone is the whole-program mode: load the module from source,
// run every analyzer over every (admitted) package, print findings.
func standalone(args []string) int {
	fs := flag.NewFlagSet("bglvet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer subset to run")
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding per line (file, line, analyzer order)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bglvet [-list] [-json] [-only a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "With no packages (or \"./...\"), checks the whole module.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 64
	}
	if *list {
		for _, a := range suite.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
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
				fmt.Fprintf(os.Stderr, "bglvet: unknown analyzer %q (try -list)\n", name)
				return 64
			}
			for _, a := range suite.All() {
				if a.Name == name {
					analyzers = append(analyzers, a)
				}
			}
		}
	}

	l, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 64
	}
	pkgs, err := loadTargets(l, fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 64
	}

	s := &analysis.Suite{Analyzers: analyzers, Filter: suite.Filter, Known: suite.Known()}
	findings, err := s.Run(l, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 64
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
			return 64
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "bglvet: %d finding(s) in %d package(s)\n", n, len(pkgs))
		return 1
	}
	return 0
}

// loadTargets resolves command-line package arguments: none or
// "./..." means the whole module; otherwise import paths or
// directories.
func loadTargets(l *analysis.Loader, args []string) ([]*analysis.Package, error) {
	if len(args) == 0 {
		return l.LoadAll()
	}
	var out []*analysis.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "all":
			return l.LoadAll()
		case arg == l.ModulePath || strings.HasPrefix(arg, l.ModulePath+"/"):
			pkg, err := l.Load(arg)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		default:
			pkg, err := l.LoadDir(arg)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

// vetConfig is the unit-check configuration go vet hands the tool —
// the same JSON x/tools' unitchecker consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit checks one compilation unit under the go vet protocol.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// go vet requires the facts file to exist even though bglvet
	// exchanges no facts between units.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Only module packages are analysis subject matter; dependencies
	// pass through (go vet visits them for facts we don't use).
	if !strings.HasPrefix(cfg.ImportPath, "bglpred") {
		return 0
	}
	// go vet also hands the tool test compilation units — the
	// in-package variant (same ImportPath as the plain unit; the
	// "[pkg.test]" decoration exists only in go's display, so the
	// _test.go files in GoFiles are the tell), the external _test
	// package, and the synthesized test main ("pkg.test"). Test code
	// is exempt from the production invariants (fire-and-forget
	// goroutines and ad-hoc allocation are legitimate in tests), and
	// the plain unit already covers the non-test files, so these pass
	// through once their facts file is written.
	if strings.HasSuffix(cfg.ImportPath, ".test") {
		return 0
	}
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			return 0
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return typecheckFailure(&cfg, err)
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(importPath)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{Importer: imp, Sizes: types.SizesFor(cfg.Compiler, "amd64")}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailure(&cfg, err)
	}

	pkg := &analysis.Package{
		Path:  cfg.ImportPath,
		Dir:   cfg.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	// The loader backs Pass.Load (faultpoint reads the faultinject
	// sources); anchor it at the unit's directory, inside the module.
	l, err := analysis.NewLoader(cfg.Dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 2
	}
	s := &analysis.Suite{Analyzers: suite.All(), Filter: suite.Filter, Known: suite.Known()}
	findings, err := s.Run(l, []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglvet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func typecheckFailure(cfg *vetConfig, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintf(os.Stderr, "bglvet: %s: %v\n", cfg.ImportPath, err)
	return 2
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
