// Package determinism enforces the deterministic-pipeline contract of
// PR 3 (DESIGN.md §6.7–6.9): the training pipeline — preprocess,
// assoc, catalog, predictor, eval — and the report/experiments output
// paths must be bit-identical run to run, or the shard-then-merge
// parallel Phase 1 and the CV fold evaluation cannot be trusted. The
// compiler cannot see any of this; three bug classes reintroduce
// nondeterminism silently:
//
//   - time.Now — wall-clock reads make output depend on when, not
//     what; clocks must come in as inputs.
//   - global math/rand — process-seeded randomness; a seeded
//     *rand.Rand (or rand/v2 with explicit source) is fine.
//   - map iteration feeding output — Go randomizes map order per run,
//     so ranging over a map while appending to a slice, emitting rows
//     or accumulating floats reorders results unless the collection
//     is sorted before use.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"bglpred/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now, global math/rand, and map-ordered output " +
		"(unsorted map iteration that appends, emits, or accumulates floats) " +
		"in the deterministic pipeline packages",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			if fn := funcBody(n); fn != nil {
				checkMapRanges(pass, fn)
			}
			return true
		})
	}
	return nil, nil
}

// funcBody returns the body of a function declaration or literal.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// checkCall flags wall-clock and global-randomness calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if analysis.IsPkgFunc(pass.TypesInfo, call, "time", "Now") {
		pass.Report(analysis.Diagnostic{
			Pos: call.Pos(),
			Message: "time.Now in a deterministic pipeline package makes output depend on wall clock " +
				"(PR 3 bit-identical contract)",
			SuggestedFix: "take the clock or timestamp as an input",
		})
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if pkg := fn.Pkg().Path(); pkg == "math/rand" || pkg == "math/rand/v2" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && fn.Name() != "New" &&
			fn.Name() != "NewSource" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8" && fn.Name() != "NewZipf" {
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf("global %s.%s draws from the process-wide, nondeterministically seeded generator",
					pkg, fn.Name()),
				SuggestedFix: "use a *rand.Rand built from an explicit seed",
			})
		}
	}
}

// checkMapRanges inspects every range-over-map in one function body
// and flags order-dependent dataflow out of the loop.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited separately as its own function
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		checkOneMapRange(pass, body, rs)
		return true
	})
}

func checkOneMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	mapName := analysis.PathString(rs.X)
	if mapName == "" {
		mapName = "map"
	}
	outer := func(obj types.Object) bool {
		return obj != nil && (obj.Pkg() != pass.Pkg || obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// xs = append(xs, …) into a variable that outlives the loop.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isAppend(info, call) {
					if id := analysis.BaseIdent(n.Lhs[0]); id != nil {
						obj := objOf(info, id)
						if outer(obj) && !sortedAfter(info, funcBody, rs, obj) {
							pass.Report(analysis.Diagnostic{
								Pos: n.Pos(),
								Message: fmt.Sprintf("append to %s inside iteration over map %s leaks random map order "+
									"and %s is never sorted afterwards in this function", id.Name, mapName, id.Name),
								SuggestedFix: "collect the keys, sort them, and iterate the sorted keys (or sort the result before use)",
							})
						}
					}
				}
			}
			// f += v with a float accumulator: float addition does not
			// commute bit-exactly, so map order changes the result.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.MUL_ASSIGN {
				if id := analysis.BaseIdent(n.Lhs[0]); id != nil {
					obj := objOf(info, id)
					if outer(obj) && isFloat(info.TypeOf(n.Lhs[0])) {
						pass.Report(analysis.Diagnostic{
							Pos: n.Pos(),
							Message: fmt.Sprintf("floating-point accumulation into %s over map %s is order-dependent "+
								"(float addition does not commute bit-exactly)", id.Name, mapName),
							SuggestedFix: "iterate sorted keys, or accumulate into per-key slots and reduce in fixed order",
						})
					}
				}
			}
		case *ast.CallExpr:
			if name, emits := emissionCall(info, n); emits {
				pass.Report(analysis.Diagnostic{
					Pos: n.Pos(),
					Message: fmt.Sprintf("%s inside iteration over map %s emits rows in random map order",
						name, mapName),
					SuggestedFix: "collect the keys, sort them, and iterate the sorted keys",
				})
				return false
			}
		case *ast.FuncLit:
			return false // its body runs elsewhere
		}
		return true
	})
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// emissionCall recognizes calls that write output where ordering is
// observable: the fmt print family and row/write-style sinks
// (report.Table.AddRow, io writers, string builders).
func emissionCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name(), true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name := fn.Name()
		if name == "AddRow" || name == "WriteString" || name == "WriteByte" || name == "WriteRune" || name == "Write" {
			return name, true
		}
	}
	return "", false
}

// sortedAfter reports whether obj is handed to a sort.* or slices.*
// sorting call after the range statement, anywhere later in the
// enclosing function.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			found := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
			if found {
				sorted = true
				break
			}
		}
		return !sorted
	})
	return sorted
}
