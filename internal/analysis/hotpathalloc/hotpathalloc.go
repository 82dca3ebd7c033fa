// Package hotpathalloc guards the zero-allocation contracts of the
// ingest hot path. The runtime AllocsPerRun tests prove specific
// executed paths allocation-free; this analyzer complements them by
// walking every path: a `//bglvet:hotpath` doc-comment annotation
// marks root functions (the binwire decoder, serve's wire ingest, the
// gate's routing scan), the whole-program Finish hook computes the
// static call closure of those roots across the admitted packages,
// and every allocating construct inside the closure is reported:
//
//   - map and slice literals, and &composite literals (heap escape);
//   - non-constant string concatenation;
//   - string ↔ []byte conversions — except a conversion used directly
//     as a map index or a comparison operand, the compiler's
//     recognized no-alloc forms (the decoder's `intern[string(b)]`
//     lookup, the header's `string(head) != magic` check);
//   - interface boxing: a non-pointer, non-constant, non-zero-size
//     value passed as a fixed-arity interface-typed argument (variadic
//     ...any parameters are the formatting-API shape, judged by the
//     call as a whole);
//   - escaping closures — function literals passed, returned, sent, or
//     stored into fields; literals that stay local (assigned to a
//     local variable, immediately invoked, or deferred) are exempt;
//   - any call into package fmt.
//
// Calls that cannot be resolved statically (interface methods,
// function values) end the walk at that edge: the closure is the
// static one, and the runtime tests remain the backstop for dynamic
// dispatch. `make` is deliberately not flagged — the hot path's idiom
// is amortized, pre-sized buffers whose growth the runtime tests
// already bound — and findings are deduplicated per position with the
// first (alphabetically smallest) root recorded as provenance.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bglpred/internal/analysis"
)

// HotpathMarker is the doc-comment annotation that marks a root.
const HotpathMarker = "//bglvet:hotpath"

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "no allocating constructs (literals, string conversions, boxing, escaping " +
		"closures, fmt) reachable from //bglvet:hotpath roots",
	Run:    run,
	Finish: finish,
}

// alloc is one allocating construct found in a function body.
type alloc struct {
	pos  token.Position
	what string
}

// fnInfo is the per-function summary Finish stitches into the closure.
type fnInfo struct {
	key     string
	hot     bool
	callees []string
	allocs  []alloc
}

type result struct {
	funcs []*fnInfo
}

func run(pass *analysis.Pass) (any, error) {
	res := &result{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			info := &fnInfo{key: analysis.FuncKey(fn), hot: isHot(fd)}
			if info.key == "" {
				continue
			}
			scanBody(pass, fd.Body, info)
			res.funcs = append(res.funcs, info)
		}
	}
	return res, nil
}

// isHot reports whether the declaration carries the hotpath marker.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotpathMarker || strings.HasPrefix(c.Text, HotpathMarker+" ") {
			return true
		}
	}
	return false
}

// scanBody collects callees and allocating constructs.
func scanBody(pass *analysis.Pass, body *ast.BlockStmt, info *fnInfo) {
	pos := func(n ast.Node) token.Position { return pass.Fset.Position(n.Pos()) }
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch typeOf(pass, n).(type) {
			case *types.Map:
				info.allocs = append(info.allocs, alloc{pos(n), "map literal"})
			case *types.Slice:
				info.allocs = append(info.allocs, alloc{pos(n), "slice literal"})
			default:
				// A plain value literal stays on the stack; the
				// escaping form is &T{...}, handled at the UnaryExpr.
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					info.allocs = append(info.allocs, alloc{pos(n), "&composite literal (heap escape)"})
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !isConst(pass, n) {
				if b, ok := typeOf(pass, n).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					info.allocs = append(info.allocs, alloc{pos(n), "string concatenation"})
				}
			}
			return true
		case *ast.FuncLit:
			if what := escapingLit(n, stack); what != "" {
				info.allocs = append(info.allocs, alloc{pos(n), what})
			}
			// Walk the literal's body too: it runs on the hot path
			// unless it escaped, and if it escaped that is already the
			// finding.
			return true
		case *ast.CallExpr:
			scanCall(pass, n, stack, info)
			return true
		}
		return true
	})
	sort.Slice(info.allocs, func(i, j int) bool {
		return analysis.PosLess(info.allocs[i].pos, info.allocs[j].pos)
	})
}

// scanCall handles conversions, fmt calls, boxing, and callee
// collection.
func scanCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, info *fnInfo) {
	pos := pass.Fset.Position(call.Pos())

	// Type conversion?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(pass, call.Args[0])
		if isStringByte(to, from) || isStringByte(from, to) {
			if !mapIndexOperand(call, stack) && !comparisonOperand(call, stack) && !isConst(pass, call.Args[0]) {
				info.allocs = append(info.allocs, alloc{pos, "string ↔ []byte conversion (copies)"})
			}
		}
		return
	}

	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		info.allocs = append(info.allocs, alloc{pos, "fmt." + fn.Name() + " call"})
		return // fmt's own boxing is subsumed by this finding
	}
	if key := analysis.FuncKey(fn); key != "" {
		info.callees = append(info.callees, key)
	}

	// Interface boxing of arguments.
	sig, ok := typeOf(pass, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if sig.Variadic() && i >= params.Len()-1 {
			// Variadic interface parameters are the formatting-API shape
			// (wiref, logf, fmt itself): there the call is the
			// actionable unit — flagged above when it is fmt, excused
			// as a whole otherwise — not each boxed argument.
			break
		}
		if i >= params.Len() {
			continue
		}
		pt := params.At(i).Type()
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := typeOf(pass, arg)
		if at == nil || isConst(pass, arg) || pointerShaped(at) || zeroSized(at) {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		info.allocs = append(info.allocs, alloc{
			pass.Fset.Position(arg.Pos()),
			"interface boxing of non-pointer " + at.String() + " argument",
		})
	}
}

// escapingLit classifies a function literal's fate from its parents;
// "" means it provably stays local (no heap escape).
func escapingLit(lit *ast.FuncLit, stack []ast.Node) string {
	if len(stack) == 0 {
		return "escaping closure"
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ParenExpr:
		if len(stack) < 2 {
			return "escaping closure"
		}
		parent = stack[len(stack)-2]
		if c, ok := parent.(*ast.CallExpr); ok && ast.Unparen(c.Fun) == lit {
			return "" // (func(){...})(): immediately invoked
		}
		return "escaping closure"
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			return "" // IIFE: invoked on the spot, does not escape
		}
		return "closure passed as argument (escapes)"
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			switch ast.Unparen(lhs).(type) {
			case *ast.Ident:
				return "" // local helper, invoked in place
			}
		}
		return "closure stored outside the frame (escapes)"
	case *ast.ReturnStmt:
		return "closure returned (escapes)"
	case *ast.SendStmt:
		return "closure sent on a channel (escapes)"
	case *ast.KeyValueExpr, *ast.CompositeLit:
		return "closure stored in a literal (escapes)"
	case *ast.DeferStmt, *ast.GoStmt:
		return "" // spawn/defer discipline is other analyzers' domain
	case *ast.ValueSpec:
		return "" // var f = func(){...}: local helper
	}
	return ""
}

// mapIndexOperand reports whether the conversion is used directly as a
// map index — m[string(b)] — which the compiler performs without
// allocating.
func mapIndexOperand(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	idx, ok := stack[len(stack)-1].(*ast.IndexExpr)
	return ok && idx.Index == call
}

// comparisonOperand reports whether the conversion is an operand of a
// comparison — string(b) == magic — which the compiler also performs
// without materializing the string.
func comparisonOperand(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	bin, ok := stack[len(stack)-1].(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return bin.X == call || bin.Y == call
	}
	return false
}

// zeroSized reports types whose values occupy no memory: boxing one
// hands out the runtime's shared zero base, no allocation. Untyped
// operands size as their default type; Sizeof panics on untyped input.
func zeroSized(t types.Type) bool {
	t = types.Default(t)
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false
	}
	s := types.SizesFor("gc", "amd64")
	if s == nil {
		return false
	}
	return s.Sizeof(t) == 0
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isStringByte reports a (string, []byte) type pair in that order.
func isStringByte(a, b types.Type) bool {
	ab, ok := a.Underlying().(*types.Basic)
	if !ok || ab.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := b.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	el, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && el.Kind() == types.Byte
}

// pointerShaped reports types whose interface representation is a
// plain pointer word and therefore boxes without copying the value.
// Untyped nil counts: it boxes to the nil interface, no allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil
	}
	return false
}

// finish computes the static call closure of every hot root across
// the admitted packages and reports the allocating constructs inside
// it, deduplicated by position, tagged with the root that reached
// them.
func finish(results []analysis.PkgResult, report func(analysis.Finding)) {
	byKey := make(map[string]*fnInfo)
	var roots []string
	for _, r := range results {
		res, ok := r.Result.(*result)
		if !ok || res == nil {
			continue
		}
		for _, f := range res.funcs {
			byKey[f.key] = f
			if f.hot {
				roots = append(roots, f.key)
			}
		}
	}
	sort.Strings(roots)

	// BFS per root in sorted order; the first root to reach a function
	// owns its findings.
	rootOf := make(map[string]string)
	for _, root := range roots {
		queue := []string{root}
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			if _, seen := rootOf[key]; seen {
				continue
			}
			rootOf[key] = root
			f := byKey[key]
			if f == nil {
				continue
			}
			for _, c := range f.callees {
				if _, seen := rootOf[c]; !seen && byKey[c] != nil {
					queue = append(queue, c)
				}
			}
		}
	}

	var keys []string
	for key := range rootOf {
		if byKey[key] != nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	seenPos := make(map[token.Position]bool)
	for _, key := range keys {
		f := byKey[key]
		for _, a := range f.allocs {
			if seenPos[a.pos] {
				continue
			}
			seenPos[a.pos] = true
			report(analysis.Finding{
				Analyzer: "hotpathalloc",
				Pos:      a.pos,
				Message: a.what + " on the hot path (reached from " +
					analysis.ShortKey(rootOf[key]) + ")",
				SuggestedFix: "hoist the allocation out of the hot path, reuse an amortized buffer, " +
					"or move the work to the slow path",
			})
		}
	}
}
