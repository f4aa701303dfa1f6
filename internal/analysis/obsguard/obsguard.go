// Package obsguard enforces the span-lifecycle invariant of the
// observability layer: every obs span that is started must be ended on
// all return paths, or its duration and byte delta silently vanish
// from the phase aggregates (and JSONL traces under-report the run).
//
// The rule is path-sensitive: a may-analysis over the function's CFG
// tracks, per control-flow path, the set of spans that are open (a
// `sp = rec.Start(...)` executed with no `sp.End()` yet). Any span
// still open when the exit block is reached escaped some return path
// and is reported at its Start. This accepts the repo's canonical
// idioms without suppressions:
//
//   - End-before-error-return: `sp := rec.Start(p); work(); sp.End();
//     if err != nil { return err }` — every path through the return
//     has already ended the span.
//   - deferred End: `defer sp.End()` closes the spans of sp that are
//     open at the defer point on every exit path. The defer captures
//     the span value, so a Start after the defer is NOT covered
//     (ending the zero span is a no-op) — unlike a deferred closure
//     `defer func() { sp.End() }()`, which re-reads sp at unwind and
//     covers later Starts too.
//   - conditional Start: `var sp obs.Span; if top { sp = rec.Start(p) }
//     ...; sp.End()` — the zero span's End is a no-op, and the one
//     open path is closed by the unconditional End.
//
// Paths that terminate in panic(...) are not return paths and do not
// count. Function literals are independent scopes: a span started in a
// literal must end in that literal, and returns inside a literal do
// not count against the enclosing function. A span value that escapes
// — returned, passed to a call, assigned to a field, or captured by a
// non-deferred literal that mentions it — is assumed ended by its new
// owner.
//
// Child spans follow the same rule: StartChild is a start like Start,
// and the builder methods With/WithWorker are transparent — a chained
// `csp := rec.StartChild(sp, "x").WithWorker(w).With("k", v)` tracks
// csp back to the StartChild call. Passing an open span as StartChild's
// parent argument is a read, not a handoff: the parent stays tracked
// and still needs its own End.
package obsguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
)

// Analyzer is the obsguard rule. The driver applies it to the
// instrumented packages (internal/core, internal/pfp, internal/fptree,
// internal/experiments, and the commands); package internal/obs
// itself, which implements spans, is exempt.
var Analyzer = &analysis.Analyzer{
	Name: "obsguard",
	Doc: `requires every obs span started ((*obs.Recorder).Start or
StartChild, through any With/WithWorker builder chain) to be ended
((obs.Span).End) on every return path of the same function scope,
tracked path-sensitively over the CFG, so no phase measurement or
trace event is silently dropped`,
	Run: run,
}

const obsPath = "cfpgrowth/internal/obs"

// openKey identifies one open span: the variable it was assigned to
// and the Start call that opened it.
type openKey struct {
	obj types.Object
	pos token.Pos
}

// state is the per-path analysis state.
type state struct {
	// open holds the spans started but not yet ended on this path
	// (may-set: union join).
	open map[openKey]bool
	// closed holds the variables covered by a deferred closure that
	// re-reads them at unwind (must-set: intersection join).
	closed map[types.Object]bool
}

type obsProblem struct {
	pass *analysis.Pass
}

func (p obsProblem) Entry() state {
	return state{open: map[openKey]bool{}, closed: map[types.Object]bool{}}
}

func (p obsProblem) Clone(s state) state {
	c := state{
		open:   make(map[openKey]bool, len(s.open)),
		closed: make(map[types.Object]bool, len(s.closed)),
	}
	for k := range s.open {
		c.open[k] = true
	}
	for k := range s.closed {
		c.closed[k] = true
	}
	return c
}

func (p obsProblem) Join(a, b state) state {
	j := p.Clone(a)
	for k := range b.open {
		j.open[k] = true
	}
	for o := range j.closed {
		if !b.closed[o] {
			delete(j.closed, o)
		}
	}
	return j
}

func (p obsProblem) Equal(a, b state) bool {
	if len(a.open) != len(b.open) || len(a.closed) != len(b.closed) {
		return false
	}
	for k := range a.open {
		if !b.open[k] {
			return false
		}
	}
	for o := range a.closed {
		if !b.closed[o] {
			return false
		}
	}
	return true
}

func (p obsProblem) Refine(s state, cond ast.Expr, taken bool) state { return s }

// Transfer mutates and returns s (the solver hands it a private copy).
func (p obsProblem) Transfer(s state, n ast.Node) state {
	info := p.pass.TypesInfo
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Escapes and Ends in the RHS happen before the assignment.
		for _, rhs := range n.Rhs {
			p.scanExpr(s, rhs)
		}
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			if start := startCall(info, n.Rhs[i]); start != nil {
				if obj := analysis.IdentObj(info, lhs); obj != nil {
					s.open[openKey{obj, start.Pos()}] = true
				}
			} else if obj := analysis.IdentObj(info, lhs); obj != nil {
				// Reassignment from a non-Start value: the variable no
				// longer holds any tracked span.
				dropOpens(s, obj)
			}
		}
	case *ast.DeferStmt:
		p.transferDefer(s, n)
	default:
		p.scanExpr(s, n)
	}
	return s
}

// scanExpr walks a node (not descending into literal bodies except to
// detect captures), applying End calls and escapes.
func (p obsProblem) scanExpr(s state, n ast.Node) {
	info := p.pass.TypesInfo
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(info, m)
			if fn != nil && isSpanEnd(fn) {
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if obj := analysis.IdentObj(info, sel.X); obj != nil {
						dropOpens(s, obj)
						return false // receiver consumed; don't treat as escape
					}
				}
			}
			if fn != nil && isSpanStart(fn) {
				// A start call reads its span arguments (StartChild's
				// parent) without consuming them: scan the receiver and
				// non-span arguments, but leave a plain span-ident
				// argument tracked-open — the parent still needs its own
				// End, and its later End must not look like a re-End of
				// an escaped value.
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					p.scanExpr(s, sel.X)
				}
				for _, arg := range m.Args {
					if obj := analysis.IdentObj(info, arg); obj != nil && isSpanType(obj.Type()) {
						continue
					}
					p.scanExpr(s, arg)
				}
				return false
			}
		case *ast.FuncLit:
			// A literal capturing a tracked span variable may end it:
			// treat as escape.
			for _, obj := range capturedTracked(info, s, m) {
				dropOpens(s, obj)
			}
			return true // Inspect already skips the body
		case *ast.Ident:
			// Any other use of an open span value (argument, return,
			// RHS of an assignment to another variable) hands it off;
			// the End-receiver form never reaches here because the
			// CallExpr case above stops the walk.
			if obj := info.Uses[m]; obj != nil && hasOpens(s, obj) {
				dropOpens(s, obj)
			}
		}
		return true
	})
}

// transferDefer models a defer statement: a direct `defer sp.End()`
// closes the spans sp holds now; a deferred closure that mentions sp
// closes current and future spans of sp.
func (p obsProblem) transferDefer(s state, d *ast.DeferStmt) {
	info := p.pass.TypesInfo
	call := d.Call
	if fn := analysis.Callee(info, call); fn != nil && isSpanEnd(fn) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := analysis.IdentObj(info, sel.X); obj != nil {
				dropOpens(s, obj)
				return
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, obj := range capturedSpanVars(info, lit) {
			dropOpens(s, obj)
			s.closed[obj] = true
		}
		return
	}
	// Anything else deferred with a span argument is an escape.
	p.scanExpr(s, call)
}

func dropOpens(s state, obj types.Object) {
	for k := range s.open {
		if k.obj == obj {
			delete(s.open, k)
		}
	}
}

func hasOpens(s state, obj types.Object) bool {
	for k := range s.open {
		if k.obj == obj {
			return true
		}
	}
	return false
}

// capturedTracked returns the tracked-open span variables referenced
// anywhere in lit's body.
func capturedTracked(info *types.Info, s state, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && hasOpens(s, obj) {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// capturedSpanVars returns every obs.Span-typed variable referenced in
// lit's body (used for deferred closures, which cover future Starts
// too, so membership cannot depend on the current open set).
func capturedSpanVars(info *types.Info, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && isSpanType(obj.Type()) {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

func run(pass *analysis.Pass) error {
	for _, fd := range pass.FuncDecls() {
		for _, body := range scopes(fd.Body) {
			checkScope(pass, body)
		}
	}
	return nil
}

// scopes returns root plus the body of every function literal nested
// under it, each to be analyzed as an independent scope.
func scopes(root *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{root}
	ast.Inspect(root, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

// checkScope solves the open-span analysis for one scope and reports:
// Start results that are discarded (leaked immediately) and spans
// still open when the exit block is reached.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	prob := obsProblem{pass: pass}
	g := cfg.New(body)
	res := dataflow.Forward[state](g, prob)

	// Discarded Start results: a Start call not assigned to a plain
	// variable and not consumed by an enclosing expression leaks at
	// once. Only ExprStmt and blank-assign forms are reported; a Start
	// passed along or returned is an ownership transfer.
	res.Iterate(g, prob, func(n ast.Node, _ state) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if start := startCall(info, n.X); start != nil {
				reportLeak(pass, start.Pos(), false)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				start := startCall(info, rhs)
				if start == nil || i >= len(n.Lhs) {
					continue
				}
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
					reportLeak(pass, start.Pos(), false)
				}
			}
		}
	})

	if !res.ExitReached {
		return
	}
	// Spans open at exit on some path, unless covered by a deferred
	// closure.
	reported := map[openKey]bool{}
	for k := range res.Exit.open {
		if res.Exit.closed[k.obj] || reported[k] {
			continue
		}
		reported[k] = true
		// Message selection: if no End of this variable appears after
		// the Start, the span is simply never ended; otherwise some
		// path bypasses the End.
		reportLeak(pass, k.pos, hasLaterEnd(pass, body, k))
	}
}

func reportLeak(pass *analysis.Pass, pos token.Pos, partial bool) {
	if partial {
		pass.Reportf(pos, "obs span started here is not ended on every return path (a return between Start and End skips it); call End before each return or defer it")
	} else {
		pass.Reportf(pos, "obs span started here is never ended in this function (add sp.End() or defer sp.End())")
	}
}

// hasLaterEnd reports whether an End call on k.obj appears lexically
// after the Start in this scope (so the span is ended on some paths).
func hasLaterEnd(pass *analysis.Pass, body *ast.BlockStmt, k openKey) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil || !isSpanEnd(fn) || call.Pos() <= k.pos {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if analysis.IdentObj(info, sel.X) == k.obj {
				found = true
			}
		}
		return true
	})
	return found
}

// startCall returns e as a (*obs.Recorder).Start or StartChild call —
// unwrapping any With/WithWorker builder chain hanging off it — or nil.
func startCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return nil
	}
	if isSpanStart(fn) {
		return call
	}
	if isSpanBuilder(fn) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return startCall(info, sel.X)
		}
	}
	return nil
}

// isSpanStart reports whether fn is (*obs.Recorder).Start or
// StartChild; both open a span the caller must End. (The ledger's
// isPhaseStart matches only Start: only phase spans carry
// bytes_delta.)
func isSpanStart(fn *types.Func) bool {
	return (fn.Name() == "Start" || fn.Name() == "StartChild") && analysis.HasRecv(fn, obsPath, "Recorder")
}

// isSpanBuilder reports whether fn is a (obs.Span) builder method
// (With, WithWorker): value-in, value-out attribute setters that a
// start call chains through before the result is assigned.
func isSpanBuilder(fn *types.Func) bool {
	return (fn.Name() == "With" || fn.Name() == "WithWorker") && analysis.HasRecv(fn, obsPath, "Span")
}

// isSpanEnd reports whether fn is (obs.Span).End.
func isSpanEnd(fn *types.Func) bool {
	return fn.Name() == "End" && analysis.HasRecv(fn, obsPath, "Span")
}

func isSpanType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Span" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == obsPath
}
