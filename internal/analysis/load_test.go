package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderResolvesModuleAndStdlib loads a real module package whose
// imports cross into the standard library (sync, time, fmt) and checks
// types came out usable.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	pkgs, err := NewLoader().Load("bglpred/internal/faultinject")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types.Name() != "faultinject" {
		t.Fatalf("package name = %q", pkg.Types.Name())
	}
	inj := pkg.Types.Scope().Lookup("Injector")
	if inj == nil {
		t.Fatal("Injector not found in type-checked package")
	}
	if len(pkg.Info.Defs) == 0 {
		t.Fatal("no Defs recorded; types.Info not populated")
	}
}

// TestLoaderLoadAll loads the whole module, which pulls in net/http and
// the rest of the serving stack's imports, and pins "type-check only
// what you analyze": the file set holds the module's own files and no
// file of any dependency.
func TestLoaderLoadAll(t *testing.T) {
	l := NewLoader()
	pkgs, err := l.Load("bglpred/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{"bglpred", "bglpred/internal/serve", "bglpred/cmd/bglserved"} {
		if !seen[want] {
			t.Errorf("Load missed %s (got %d packages)", want, len(pkgs))
		}
	}
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	l.Fset.Iterate(func(f *token.File) bool {
		files++
		if !strings.HasPrefix(f.Name(), moduleDir+string(filepath.Separator)) {
			t.Errorf("file set holds %s, outside module %s", f.Name(), moduleDir)
		}
		return true
	})
	if files == 0 {
		t.Fatal("file set is empty")
	}
}

// TestLoaderRootImportsRoot loads lockorder's cross-package corpus as
// roots: locka's import of lockc resolves to the lockc package checked
// from source, not to export data the go command cannot have.
func TestLoaderRootImportsRoot(t *testing.T) {
	l := NewLoader()
	l.Roots = make(map[string]string)
	for _, name := range []string{"locka", "lockb", "lockc"} {
		l.Roots[name] = filepath.Join("lockorder", "testdata", "src", name)
	}
	pkgs, err := l.Load("locka", "lockc")
	if err != nil {
		t.Fatal(err)
	}
	locka, lockc := pkgs[0], pkgs[1]
	imports := locka.Types.Imports()
	found := false
	for _, imp := range imports {
		found = found || imp == lockc.Types
	}
	if !found {
		t.Fatalf("locka imports %v, not the source-checked lockc", imports)
	}
}
