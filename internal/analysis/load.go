package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Loader type-checks the packages under analysis from source and every
// import from compiler export data, which one `go list -export -deps
// -json` per Load builds or reuses. Fset holds only the analyzed files;
// imported objects keep positions in the importer's own file set.
type Loader struct {
	Fset *token.FileSet
	// Roots maps import paths to directories loaded from source instead
	// (analysistest's corpora, planted copies), imports between roots too.
	Roots map[string]string

	exports map[string]string // import path → export data file
	imp     types.Importer
	roots   map[string]*Package
}

// NewLoader returns a loader that runs go list in the working directory.
func NewLoader() *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: make(map[string]string), roots: make(map[string]*Package)}
	l.imp = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(l.exports[path])
	})
	return l
}

// Load type-checks the packages the patterns name. A key of Roots names
// that root; every other pattern goes to go list unchanged, and the
// main-module packages it matches follow the roots in go list's order.
// A package that fails to build fails the load with go list's message.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var args []string // new roots' imports, then the patterns for go list
	for path, dir := range l.Roots {
		if l.roots[path] != nil {
			continue
		}
		pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
		names, _ := fs.Glob(os.DirFS(dir), "*.go") // fails only on a malformed pattern
		if err := l.parse(pkg, names); err != nil {
			return nil, err
		}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				if imp, _ := strconv.Unquote(spec.Path.Value); l.Roots[imp] == "" {
					args = append(args, imp)
				}
			}
		}
		l.roots[path] = pkg
	}
	var out []*Package
	for _, p := range patterns {
		if pkg := l.roots[p]; pkg != nil {
			out = append(out, pkg)
		} else {
			args = append(args, p)
		}
	}
	if len(args) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, args...)...)
		cmd.Stderr = new(strings.Builder)
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go list: %w\n%s", err, strings.TrimSpace(fmt.Sprint(cmd.Stderr)))
		}
		for dec := json.NewDecoder(strings.NewReader(string(data))); dec.More(); {
			var lp struct {
				ImportPath, Dir, Export string
				GoFiles, Match          []string
				Module                  *struct{ Main bool }
			}
			if err := dec.Decode(&lp); err != nil {
				return nil, fmt.Errorf("analysis: go list output: %w", err)
			}
			l.exports[lp.ImportPath] = lp.Export
			if lp.Module == nil || !lp.Module.Main || !slices.ContainsFunc(lp.Match, func(m string) bool { return slices.Contains(patterns, m) }) {
				continue
			}
			pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: l.Fset}
			if err := l.parse(pkg, lp.GoFiles); err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	for _, pkg := range out {
		if err := l.check(pkg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parse reads the named files of pkg.Dir, comments included.
func (l *Loader) parse(pkg *Package, names []string) error {
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(pkg.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg.Files = append(pkg.Files, f)
	}
	return nil
}

// check type-checks pkg once; Info without Types marks a check underway.
func (l *Loader) check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	if pkg.Info != nil {
		return fmt.Errorf("analysis: import cycle through %q", pkg.Path)
	}
	pkg.Info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	tpkg, err := (&types.Config{Importer: l}).Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}

// Import is the types.Importer the loader checks with: roots come from
// source, everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg := l.roots[path]; pkg != nil {
		err := l.check(pkg)
		return pkg.Types, err
	}
	return l.imp.Import(path)
}
