package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PathString renders a pure selector chain ("s.shard.mu") or "" if
// the expression is anything more complicated (calls, indexing) — the
// analyzers track locks and maps only through plain paths.
func PathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := PathString(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return PathString(e.X)
	}
	return ""
}

// BaseIdent returns the root identifier of a selector chain, or nil.
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// CalleeFunc resolves a call to the package-level function or method
// object it invokes, nil for indirect calls through variables.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether a call invokes pkgPath.name (a
// package-level function, e.g. "time".Now).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// FuncKey renders a stable cross-package identity for a function or
// method object: "pkg/path.Func" or "pkg/path.(Type).Method". It is
// the vocabulary the whole-program Finish hooks use to stitch
// per-package call summaries into one graph. Returns "" for nil
// objects and for methods whose receiver is not a named type (there
// is no declaration to resolve them to).
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		n := NamedType(sig.Recv().Type())
		if n == nil {
			return ""
		}
		return fn.Pkg().Path() + ".(" + n.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// ShortKey trims the import-path directories from a function or lock
// key ("bglpred/internal/serve.(Server).mu" → "serve.(Server).mu") for
// finding messages.
func ShortKey(key string) string {
	return key[strings.LastIndex(key, "/")+1:]
}

// PosLess orders positions by file, line and column: the deterministic
// tie-break for findings the whole-program hooks deduplicate.
func PosLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// WalkStack is ast.Inspect with an ancestor stack: f sees each node
// with stack[0] the file down to stack[len-1] the node's parent.
func WalkStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := f(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// NamedType unwraps pointers and aliases to the *types.Named beneath,
// or nil.
func NamedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
