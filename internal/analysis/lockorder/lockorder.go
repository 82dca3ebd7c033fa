// Package lockorder enforces two mutex disciplines the concurrency
// layer (serve's close lock, the cluster gate's replay loops,
// the ledger's group-commit leader, lifecycle's retrain path) depends
// on but no test can exhaustively exercise:
//
//   - A global lock ORDER. Every sync.Mutex/RWMutex field is a node
//     keyed by its declaration ("pkg.(Type).field"); acquiring B while
//     A is held is an edge A→B, including acquisitions reached through
//     calls (f holds A and calls g, g locks B — even when g lives in
//     another package, which is why the edge collection runs in the
//     whole-program Finish hook over per-package call summaries). A
//     cycle in that graph is a potential deadlock: two goroutines
//     walking the cycle from different entry points block each other
//     forever, and no chaos seed is guaranteed to find the
//     interleaving.
//
//   - No skippable unlocks. A Lock whose Unlock is not deferred must
//     be released on every path; a return (or an implicit fall-off of
//     the function end) reached while the lock is still held leaks it,
//     and the next acquirer deadlocks. The walk is path-sensitive with
//     must-hold merging: a lock released on both arms of a branch is
//     released, a lock released on only one arm stays held on the
//     other, and a deferred unlock protects every path at once.
//
// A Lock on a path that already holds the same lock instance is
// reported directly: sync.Mutex is not reentrant, so that goroutine
// deadlocks against itself with certainty.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bglpred/internal/analysis"
)

// Analyzer is the lock-ordering and lock-leak checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "build the cross-package lock-ordering graph and report cycles (potential " +
		"deadlocks), plus non-deferred Unlocks skippable on an early-return path",
	Run:    run,
	Finish: finish,
}

// Edge is one observed acquisition order: To was locked while From
// was held.
type Edge struct {
	From, To string
	Pos      token.Position
	// Via names the callee the acquisition was reached through, ""
	// for a direct Lock in the holding function.
	Via string
}

// fnSummary is the per-function slice of the whole-program graph.
type fnSummary struct {
	key string
	// directLocks are lock keys this function acquires in its own body.
	directLocks []string
	// callees are the statically resolved functions this body calls.
	callees []string
	// heldCalls are calls made while at least one keyed lock is held.
	heldCalls []heldCall
	// edges are direct held→acquire observations.
	edges []Edge
}

type heldCall struct {
	held   []string
	callee string
	pos    token.Position
}

// result is the per-package Run result consumed by finish.
type result struct {
	funcs []*fnSummary
}

func run(pass *analysis.Pass) (any, error) {
	res := &result{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sum := &fnSummary{key: funcDeclKey(pass, fd)}
			w := &walker{pass: pass, sum: sum, held: map[string]*heldLock{}}
			if !w.block(fd.Body) {
				// Implicit return at the closing brace: anything still
				// held here is held forever.
				w.checkReturn(fd.Body.Rbrace)
			}
			// Function literals run with their own (empty) lock
			// context, but their acquisitions and calls belong to the
			// enclosing function's summary — a closure invoked inline
			// (flush helpers, deferred cleanups) acquires under
			// whatever the encloser holds at the call site, which the
			// conservative closure in finish over-approximates.
			// Literals launched with `go` are excluded: they run on
			// their own goroutine with provably nothing inherited.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if _, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
						lw := &walker{pass: pass, sum: sum, held: map[string]*heldLock{}, litOnly: true}
						lw.block(g.Call.Fun.(*ast.FuncLit).Body)
						return false
					}
					return true
				}
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				lw := &walker{pass: pass, sum: sum, held: map[string]*heldLock{}}
				if !lw.block(lit.Body) {
					lw.checkReturn(lit.Body.Rbrace)
				}
				return false
			})
			res.funcs = append(res.funcs, sum)
		}
	}
	return res, nil
}

// funcDeclKey resolves a declaration to its FuncKey.
func funcDeclKey(pass *analysis.Pass, fd *ast.FuncDecl) string {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return analysis.FuncKey(fn)
}

// heldLock is one lock the current path holds.
type heldLock struct {
	path     string // instance selector path, e.g. "l.mu"
	key      string // declaration key, "" for locals
	pos      token.Pos
	method   string // Lock or RLock
	deferred bool   // a deferred Unlock protects every path
}

type walker struct {
	pass *analysis.Pass
	sum  *fnSummary
	held map[string]*heldLock
	// litOnly marks a goroutine-literal walk: acquisitions and calls
	// still feed the summary (the goroutine imposes its own order),
	// but leaks at its end are the goroutine's to keep — a worker
	// loop may hold a lock across its whole life by design.
	litOnly bool
}

func (w *walker) clone() *walker {
	held := make(map[string]*heldLock, len(w.held))
	for k, v := range w.held {
		cp := *v
		held[k] = &cp
	}
	return &walker{pass: w.pass, sum: w.sum, held: held, litOnly: w.litOnly}
}

// merge keeps only locks held in both outcomes (must-hold); a
// deferred unlock on either side protects the survivor.
func (w *walker) merge(a, b map[string]*heldLock) {
	out := make(map[string]*heldLock, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			cp := *va
			cp.deferred = va.deferred || vb.deferred
			out[k] = &cp
		}
	}
	w.held = out
}

// block walks statements in order; true means the path terminated
// (return/branch), so following statements are unreachable.
func (w *walker) block(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt) (term bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockOp(call) {
			return false
		}
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if path := w.unlockPath(s.Call); path != "" {
			if h, ok := w.held[path]; ok {
				h.deferred = true
			}
			return false
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure that unlocks protects the path just
			// like a direct deferred Unlock does.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if p := w.unlockPath(c); p != "" {
						if h, ok := w.held[p]; ok {
							h.deferred = true
						}
					}
				}
				return true
			})
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		// The goroutine body is walked separately with an empty
		// context; only argument expressions evaluate here.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
		if _, isLit := s.Call.Fun.(*ast.FuncLit); !isLit {
			w.expr(s.Call.Fun)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
		w.checkReturn(s.Pos())
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this block; the lock state rejoins
		// at a point this linear walk does not model, so treat the
		// path as terminated here (conservative for must-hold).
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		tw := w.clone()
		tterm := tw.block(s.Body)
		if s.Else == nil {
			if !tterm {
				w.merge(w.held, tw.held)
			}
			return false
		}
		ew := w.clone()
		eterm := ew.stmt(s.Else)
		switch {
		case tterm && eterm:
			return true
		case tterm:
			w.held = ew.held
		case eterm:
			w.held = tw.held
		default:
			w.merge(tw.held, ew.held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		bw := w.clone()
		bterm := bw.block(s.Body)
		if s.Post != nil {
			bw.stmt(s.Post)
		}
		if !bterm {
			w.merge(w.held, bw.held)
		}
	case *ast.RangeStmt:
		w.expr(s.X)
		bw := w.clone()
		if !bw.block(s.Body) {
			w.merge(w.held, bw.held)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.clauses(s)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
	return false
}

// clauses walks each case of a switch/type-switch/select on its own
// clone and must-hold-merges the fall-through outcomes. A missing
// default keeps the incoming state in the merge (no case may match).
func (w *walker) clauses(s ast.Stmt) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	outcomes := []map[string]*heldLock{}
	for _, c := range body.List {
		cw := w.clone()
		term := false
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				cw.expr(e)
			}
			for _, st := range cc.Body {
				if term = cw.stmt(st); term {
					break
				}
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				cw.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				if term = cw.stmt(st); term {
					break
				}
			}
		}
		if !term {
			outcomes = append(outcomes, cw.held)
		}
	}
	if !hasDefault {
		outcomes = append(outcomes, w.held)
	}
	if len(outcomes) == 0 {
		return // every clause terminates and a default exists
	}
	merged := outcomes[0]
	for _, o := range outcomes[1:] {
		w.merge(merged, o)
		merged = w.held
	}
	w.held = merged
}

// checkReturn reports locks still held (and not defer-protected) when
// a path leaves the function.
func (w *walker) checkReturn(at token.Pos) {
	if w.litOnly {
		return
	}
	var leaked []*heldLock
	for _, h := range w.held {
		if !h.deferred {
			leaked = append(leaked, h)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].path < leaked[j].path })
	for _, h := range leaked {
		w.pass.Report(analysis.Diagnostic{
			Pos: at,
			Message: fmt.Sprintf("this return path leaves %s locked (%s at %s is not deferred); the next %s deadlocks",
				h.path, h.method, w.pass.Fset.Position(h.pos), h.method),
			SuggestedFix: fmt.Sprintf("defer %s.Unlock() right after the Lock, or unlock on this path", h.path),
		})
	}
}

// lockOp handles x.mu.Lock()-family statements: updates held state,
// records graph edges, reports same-instance re-acquisition. Reports
// whether the call was a lock operation.
func (w *walker) lockOp(call *ast.CallExpr) bool {
	name := w.lockMethod(call)
	if name == "" {
		return false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	path := analysis.PathString(sel.X)
	if path == "" {
		return true // m[i].mu etc.: untrackable instance, conservative no-op
	}
	switch name {
	case "Lock", "RLock":
		if prev, ok := w.held[path]; ok {
			w.pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf("%s.%s while %s is already held (%s at %s); sync mutexes are not reentrant, this goroutine deadlocks",
					path, name, path, prev.method, w.pass.Fset.Position(prev.pos)),
				SuggestedFix: "split the locked region or take the lock once at the outermost caller",
			})
			return true
		}
		key := w.lockKey(sel.X)
		if key != "" {
			w.sum.directLocks = append(w.sum.directLocks, key)
			for _, h := range w.held {
				if h.key != "" && h.key != key {
					w.sum.edges = append(w.sum.edges, Edge{
						From: h.key, To: key, Pos: w.pass.Fset.Position(call.Pos()),
					})
				}
			}
		}
		w.held[path] = &heldLock{path: path, key: key, pos: call.Pos(), method: name}
	case "Unlock", "RUnlock":
		delete(w.held, path)
	}
	return true
}

// lockMethod returns the method name for sync.Mutex/RWMutex
// Lock/RLock/Unlock/RUnlock calls, else "".
func (w *walker) lockMethod(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return ""
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if analysis.IsNamed(rt, "sync", "Mutex") || analysis.IsNamed(rt, "sync", "RWMutex") {
		return sel.Sel.Name
	}
	return ""
}

// unlockPath returns the instance path for a deferred
// x.mu.Unlock()/RUnlock() call, "" otherwise.
func (w *walker) unlockPath(call *ast.CallExpr) string {
	name := w.lockMethod(call)
	if name != "Unlock" && name != "RUnlock" {
		return ""
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return analysis.PathString(sel.X)
}

// lockKey resolves the mutex expression (the receiver of a Lock call)
// to its declaration key: "pkg.(Type).field" for struct fields,
// "pkg.name" for package-level vars, "" for locals.
func (w *walker) lockKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if selx, ok := w.pass.TypesInfo.Selections[e]; ok && selx.Kind() == types.FieldVal {
			obj := selx.Obj()
			if named := analysis.NamedType(selx.Recv()); named != nil && obj.Pkg() != nil {
				return obj.Pkg().Path() + ".(" + named.Obj().Name() + ")." + obj.Name()
			}
			return ""
		}
		// Qualified package-level var: pkg.Mu.
		if v, ok := w.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := w.pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// expr records static calls (for the acquisition closure) and calls
// made under held locks (for cross-function edges). Function literals
// are walked separately.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
		key := analysis.FuncKey(fn)
		if key == "" {
			return true
		}
		w.sum.callees = append(w.sum.callees, key)
		var held []string
		for _, h := range w.held {
			if h.key != "" {
				held = append(held, h.key)
			}
		}
		if len(held) > 0 {
			sort.Strings(held)
			w.sum.heldCalls = append(w.sum.heldCalls, heldCall{
				held: held, callee: key, pos: w.pass.Fset.Position(call.Pos()),
			})
		}
		return true
	})
}

// finish stitches the per-package summaries into one graph: the lock
// set each function may acquire (directly or transitively) is closed
// over the call graph by fixpoint, held calls contribute edges into
// their callee's closure, and every cycle is reported once.
func finish(results []analysis.PkgResult, report func(analysis.Finding)) {
	var funcs []*fnSummary
	for _, r := range results {
		res, ok := r.Result.(*result)
		if !ok || res == nil {
			continue
		}
		funcs = append(funcs, res.funcs...)
	}

	// acquire[f] = every lock key f may take, transitively.
	acquire := make(map[string]map[string]bool)
	callees := make(map[string][]string)
	for _, f := range funcs {
		if f.key == "" {
			continue
		}
		set := acquire[f.key]
		if set == nil {
			set = make(map[string]bool)
			acquire[f.key] = set
		}
		for _, l := range f.directLocks {
			set[l] = true
		}
		callees[f.key] = append(callees[f.key], f.callees...)
	}
	for changed := true; changed; {
		changed = false
		for key, set := range acquire {
			for _, c := range callees[key] {
				for l := range acquire[c] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}

	type edgeKey struct{ from, to string }
	edges := make(map[edgeKey]Edge)
	addEdge := func(e Edge) {
		k := edgeKey{e.From, e.To}
		if prev, ok := edges[k]; ok {
			// Deterministic representative: keep the smallest position.
			if analysis.PosLess(prev.Pos, e.Pos) {
				return
			}
		}
		edges[k] = e
	}
	for _, f := range funcs {
		for _, e := range f.edges {
			addEdge(e)
		}
		for _, hc := range f.heldCalls {
			for to := range acquire[hc.callee] {
				for _, from := range hc.held {
					if from != to {
						addEdge(Edge{From: from, To: to, Pos: hc.pos, Via: hc.callee})
					}
				}
			}
		}
	}

	adj := make(map[string][]string)
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}

	for _, cycle := range findCycles(adj) {
		var parts []string
		var first *Edge
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := edges[edgeKey{from, to}]
			if first == nil {
				first = &e
			}
			via := ""
			if e.Via != "" {
				via = " via " + analysis.ShortKey(e.Via)
			}
			parts = append(parts, fmt.Sprintf("%s → %s (%s%s)", analysis.ShortKey(from), analysis.ShortKey(to), e.Pos, via))
		}
		report(analysis.Finding{
			Analyzer: "lockorder",
			Pos:      first.Pos,
			Message: fmt.Sprintf("lock-order cycle: %s; goroutines taking these locks in different orders can deadlock",
				strings.Join(parts, ", ")),
			SuggestedFix: "impose a single global acquisition order (document it on the lock fields) or collapse the locks",
		})
	}
}

// findCycles returns every elementary cycle's node set, canonicalized
// (rotated to start at the smallest node, deduplicated, sorted).
// Graphs here are tiny, so a DFS per node is plenty.
func findCycles(adj map[string][]string) [][]string {
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	seen := make(map[string]bool) // canonical cycle signature
	var cycles [][]string
	var path []string
	onPath := make(map[string]int)

	var dfs func(n string)
	dfs = func(n string) {
		if i, ok := onPath[n]; ok {
			cyc := append([]string(nil), path[i:]...)
			cyc = canonical(cyc)
			sig := strings.Join(cyc, "\x00")
			if !seen[sig] {
				seen[sig] = true
				cycles = append(cycles, cyc)
			}
			return
		}
		onPath[n] = len(path)
		path = append(path, n)
		for _, m := range adj[n] {
			dfs(m)
		}
		path = path[:len(path)-1]
		delete(onPath, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return strings.Join(cycles[i], "\x00") < strings.Join(cycles[j], "\x00")
	})
	return cycles
}

// canonical rotates a cycle to start at its smallest node.
func canonical(cyc []string) []string {
	min := 0
	for i, n := range cyc {
		if n < cyc[min] {
			min = i
		}
	}
	out := make([]string, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}
