package bglpred

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docIndex is what the module declares, for resolving doc references:
// per package (keyed by directory name, the root package as
// "bglpred") its top-level names, Type.Member pairs and bare member
// names (as .Member), every Go file's module-relative path and base
// name, the daemons' metric families: those the /metrics goldens pin
// plus the string literals cmd/bglserved registers as AuxMetrics, and
// the command-line flags cmd/, bench/ and non-test internal/ files
// declare.
type docIndex struct {
	pkgs    map[string]map[string]bool
	files   map[string]bool
	metrics map[string]bool
	flags   map[string]bool
}

func buildDocIndex(t *testing.T) docIndex {
	t.Helper()
	idx := docIndex{pkgs: make(map[string]map[string]bool), files: make(map[string]bool), metrics: make(map[string]bool), flags: make(map[string]bool)}
	for _, golden := range []string{"internal/serve/testdata/metrics.golden", "internal/cluster/testdata/metrics.golden"} {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
				idx.metrics[f[2]] = true
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		idx.files[path] = true
		idx.files[filepath.Base(path)] = true
		dir := filepath.ToSlash(filepath.Dir(path))
		cmd, bench := strings.HasPrefix(dir, "cmd/"), dir == "bench" || strings.HasPrefix(dir, "bench/")
		if dir != "." && !strings.HasPrefix(dir, "internal/") && !cmd && !bench {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if cmd || bench || !strings.HasSuffix(path, "_test.go") {
			declareFlags(idx.flags, f)
		}
		if bench {
			return nil // read for its flags only
		}
		pkg := filepath.Base(dir)
		if dir == "." {
			pkg = "bglpred"
		}
		if idx.pkgs[pkg] == nil {
			idx.pkgs[pkg] = make(map[string]bool)
		}
		declareFile(idx.pkgs[pkg], f)
		if dir == "cmd/bglserved" {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					idx.metrics[name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// declareFile records a file's top-level names, its methods as
// Type.Method, and struct fields and interface methods as Type.Member.
func declareFile(names map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				member(names, id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var members *ast.FieldList
					switch u := s.Type.(type) {
					case *ast.StructType:
						members = u.Fields
					case *ast.InterfaceType:
						members = u.Methods
					}
					if members == nil {
						continue
					}
					for _, field := range members.List {
						for _, n := range field.Names {
							member(names, s.Name.Name, n.Name)
						}
						if len(field.Names) == 0 {
							typ := field.Type
							if star, ok := typ.(*ast.StarExpr); ok {
								typ = star.X
							}
							if sel, ok := typ.(*ast.SelectorExpr); ok {
								typ = sel.Sel
							}
							if id, ok := typ.(*ast.Ident); ok {
								member(names, s.Name.Name, id.Name)
							}
						}
					}
				}
			}
		}
	}
}

// flagNameArg is, for each flag-defining function of package flag (and
// method of flag.FlagSet), the index of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"Var": 1, "TextVar": 1,
}

// declareFlags records the flag names a file declares: calls such as
// flag.IntVar(&v, "name", ...) or fs.String("name", ...) whose name
// argument is a string literal.
func declareFlags(flags map[string]bool, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		i, ok := flagNameArg[sel.Sel.Name]
		if !ok || i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			flags[name] = true
		}
		return true
	})
}

func member(names map[string]bool, typ, name string) {
	names[typ+"."+name] = true
	names["."+name] = true
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// pkgRef is pkg.Name or pkg.Type.Member with Name and Type
	// exported, optionally called. Lowercase forms are left alone: in
	// the docs they are metric names, fault points and file names.
	pkgRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:\(.*\))?$`)
	// fileRef is a Go file, optionally with a :line or :from–to suffix.
	fileRef = regexp.MustCompile(`^((?:[\w.-]+/)*[A-Za-z0-9][\w.-]*\.go)(?::[\d,–-]+)?$`)
	// metricRef is a bglserved_ or bglgate_ metric family, optionally
	// with a label set.
	metricRef = regexp.MustCompile(`^((?:bglserved|bglgate)_[a-z0-9_]+)(?:\{.*\})?$`)
	// flagRef is a bare command-line flag, optionally with =value.
	flagRef = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:=\S*)?$`)
)

// unresolved returns why a code span names nothing in the module, or
// "" when it resolves or is not a module reference at all (a stdlib
// name, a command line, a literal).
func (idx docIndex) unresolved(span string) string {
	if m := metricRef.FindStringSubmatch(span); m != nil {
		if !idx.metrics[m[1]] {
			return "names no metric family the /metrics goldens or cmd/bglserved declare"
		}
		return ""
	}
	if m := flagRef.FindStringSubmatch(span); m != nil {
		if !idx.flags[m[1]] {
			return "names no flag cmd/, bench/ or internal/ declares"
		}
		return ""
	}
	if m := fileRef.FindStringSubmatch(span); m != nil {
		if !idx.files[m[1]] {
			return "names no Go file in the module"
		}
		return ""
	}
	m := pkgRef.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	names, ok := idx.pkgs[m[1]]
	if !ok {
		return "" // not a module package: stdlib or a variable
	}
	ref := m[2]
	if m[3] != "" {
		ref += "." + m[3]
	}
	// pkg.Method is how the docs name a method whose type is clear from
	// the text.
	if !names[ref] && (m[3] != "" || !names["."+ref]) {
		return "names nothing package " + m[1] + " declares"
	}
	return ""
}

// TestDocReferencesResolve keeps DESIGN.md and README.md honest about
// the code: every backticked pkg.Name, pkg.Type.Member and Go file
// must still exist in the module's root, internal/ and cmd/ packages,
// every backticked bglserved_/bglgate_ metric family must still be
// exported, and every bare backticked -flag must still be declared by
// a command or the benchmark, so a rename or deletion fails here until
// the docs follow it. Fenced code blocks are skipped.
func TestDocReferencesResolve(t *testing.T) {
	idx := buildDocIndex(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank fenced blocks but keep their lines, so offsets still
		// count lines and a span may wrap as markdown allows.
		lines := strings.Split(string(data), "\n")
		fenced := false
		for i, line := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(line), "```")
			if fenced || fence {
				lines[i] = ""
			}
			if fence {
				fenced = !fenced
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span := strings.ReplaceAll(text[m[2]:m[3]], "\n", " ")
			if why := idx.unresolved(span); why != "" {
				t.Errorf("%s:%d: `%s` %s", doc, strings.Count(text[:m[0]], "\n")+1, span, why)
			}
		}
	}
}
