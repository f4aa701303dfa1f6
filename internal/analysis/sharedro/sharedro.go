// Package sharedro guards the read-only contract of the data shared
// across mine.RunSharded workers. The sharded mine path is only
// race-free because workers share nothing mutable: the initial
// CFP-array and its flat decoding are built once before the pool
// starts and then only read; everything a worker mutates is its own
// (per-worker growers and arenas) or synchronized by construction
// (Control, sinks, recorders). A write from a worker closure to
// captured shared state — direct, or hidden inside a callee that
// writes through a parameter — is a data race the race detector only
// catches when the schedule cooperates.
//
// The analyzer inspects every function literal passed to
// mine.RunSharded. A variable captured from the spawning scope is
// shared; writes to it or through it are reported:
//
//   - directly: d.field = v, d.buf[i] = v, *d = v, d = v, d.n++,
//     copy(d.buf, ...);
//   - through a worker-local alias: b := d.buf; b[0] = v, where
//     pointsto says b may point into memory reachable from d;
//   - via a callee whose pointsto write mask (pointsto.ParamWrites)
//     says it writes through the parameter the shared value is passed
//     as — including method receivers and callees that write through
//     a local alias of their parameter, so topDec.From(arr) inside a
//     worker is caught even though the store is two calls deep.
//
// Two access shapes are exempt: an access indexed by one of the
// closure's own parameters (growers[worker], arenas[worker] — the
// pool partitions those by construction), together with the memory
// reachable from it (m := ds[worker]; m.n++), and values of the
// synchronized layers (internal/mine, internal/obs, sync, context,
// and interface values), whose mutation is their own contract.
// Points-to sets do not tell elements apart, so once a worker touches
// ds[worker], a write through a local alias of any element of ds is
// taken as partitioned too; a direct ds[0].n = v is still reported.
package sharedro

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/pointsto"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer is the sharedro rule, scoped by the driver to the packages
// that drive sharded mining (internal/core, internal/pfp).
var Analyzer = &analysis.Analyzer{
	Name: "sharedro",
	Doc: `forbids writes from a mine.RunSharded worker closure to values
captured from the spawning scope (directly, through a worker-local
alias, or through a callee that writes a parameter): workers share the
top-level CFP-array and its flat decoding read-only, and an
unsynchronized write is a data race; per-worker state indexed by the
closure's parameters and the synchronized mine/obs layers are exempt`,
	Requires:  []*analysis.Analyzer{pointsto.Analyzer},
	FactTypes: []analysis.Fact{new(pointsto.Escapes)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	r := pointsto.ResultOf(pass)
	if r == nil {
		return nil
	}
	for _, fd := range pass.FuncDecls() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "RunSharded" ||
				fn.Pkg() == nil || fn.Pkg().Path() != "cfpgrowth/internal/mine" {
				return true
			}
			if len(call.Args) != 4 {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[3]).(*ast.FuncLit); ok {
				newWorker(pass, r, lit).check()
			}
			return true
		})
	}
	return nil
}

const (
	raceDirect = "worker closure writes %s, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts"
	raceAlias  = "worker closure writes %s, which may point into %s, captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts"
	raceCopy   = "copy writes into %s, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts"
	raceCall   = "call to %s writes through %s, which is captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts"
	raceCallAl = "call to %s writes through %s, which may point into %s, captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts"
)

// A worker is one RunSharded worker literal under check.
type worker struct {
	pass *analysis.Pass
	r    *pointsto.Result
	lit  *ast.FuncLit
	// params are the closure's own parameters: accesses indexed by
	// them are partitioned per worker/shard/job and exempt.
	params map[types.Object]bool
	// shared maps each object reachable from a captured,
	// unsynchronized variable — minus the memory reached through
	// parameter-indexed accesses — to that variable.
	shared map[int]types.Object
}

func newWorker(pass *analysis.Pass, r *pointsto.Result, lit *ast.FuncLit) *worker {
	w := &worker{pass: pass, r: r, lit: lit, params: map[types.Object]bool{}, shared: map[int]types.Object{}}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				w.params[obj] = true
			}
		}
	}
	for _, v := range r.LitCaptures(lit) {
		if synchronized(v.Type()) {
			continue
		}
		for _, o := range r.Reachable(r.VarPts(v)) {
			if _, ok := w.shared[o.ID]; !ok {
				w.shared[o.ID] = v
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok && w.paramIndexed(ix) {
			for _, o := range r.Reachable(r.ExprPts(ix)) {
				delete(w.shared, o.ID)
			}
		}
		return true
	})
	return w
}

// check reports shared-state writes inside the worker literal.
func (w *worker) check() {
	ast.Inspect(w.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				w.checkStore(lhs)
			}
		case *ast.IncDecStmt:
			w.checkStore(n.X)
		case *ast.CallExpr:
			w.checkCall(n)
		}
		return true
	})
}

// checkStore reports a write to lhs that may land in shared state.
func (w *worker) checkStore(lhs ast.Expr) {
	root, ok := w.root(lhs)
	if !ok {
		return
	}
	if w.captured(root) {
		w.pass.Reportf(lhs.Pos(), raceDirect, root.Name())
		return
	}
	if cap := w.aliased(storeBase(lhs)); cap != nil {
		w.pass.Reportf(lhs.Pos(), raceAlias, root.Name(), cap.Name())
	}
}

// checkCall reports shared values passed where the callee writes:
// copy's destination, or a slot of the callee's pointsto write mask.
func (w *worker) checkCall(call *ast.CallExpr) {
	info := w.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 2 {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
			if root, ok := w.root(call.Args[0]); ok {
				if w.captured(root) {
					w.pass.Reportf(call.Args[0].Pos(), raceCopy, root.Name())
				} else if cap := w.aliased(call.Args[0]); cap != nil {
					w.pass.Reportf(call.Args[0].Pos(), raceAlias, root.Name(), cap.Name())
				}
			}
			return
		}
	}
	fn := analysis.Callee(info, call)
	writes := pointsto.ParamWrites(w.pass, fn)
	if writes == 0 {
		return
	}
	for i, a := range summary.ArgExprs(call, fn) {
		if a == nil || i >= 32 || writes&(1<<i) == 0 {
			continue
		}
		root, ok := w.root(a)
		if !ok {
			continue
		}
		if w.captured(root) {
			w.pass.Reportf(a.Pos(), raceCall, fn.Name(), root.Name())
		} else if cap := w.aliased(a); cap != nil {
			w.pass.Reportf(a.Pos(), raceCallAl, fn.Name(), root.Name(), cap.Name())
		}
	}
}

// root chases e to its base variable. It fails for accesses indexed
// by a closure parameter (partitioned by construction), for values of
// the synchronized layers, and for expressions with no variable root.
func (w *worker) root(e ast.Expr) (*types.Var, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			if w.paramIndexed(x) {
				return nil, false
			}
			e = x.X
		default:
			id, ok := e.(*ast.Ident)
			if !ok {
				return nil, false
			}
			v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || v.IsField() || synchronized(v.Type()) {
				return nil, false
			}
			return v, true
		}
	}
}

// captured reports whether v is declared outside the worker literal.
func (w *worker) captured(v *types.Var) bool {
	return v.Pos() < w.lit.Pos() || v.Pos() > w.lit.End()
}

// aliased returns the captured variable whose memory e may point
// into, or nil.
func (w *worker) aliased(e ast.Expr) types.Object {
	for _, o := range w.r.ExprPts(e) {
		if v, ok := w.shared[o.ID]; ok {
			return v
		}
	}
	return nil
}

// paramIndexed reports whether ix is indexed by one of the closure's
// parameters.
func (w *worker) paramIndexed(ix *ast.IndexExpr) bool {
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	return ok && w.params[w.pass.TypesInfo.Uses[id]]
}

// storeBase returns the expression whose memory a store to lhs writes:
// the operand of the outermost selector, index or dereference. A bare
// identifier is a rebind of a worker-local and has no base.
func storeBase(lhs ast.Expr) ast.Expr {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.StarExpr:
		return x.X
	}
	return nil
}

// synchronized reports whether t belongs to the layers whose
// concurrent mutation is their own documented contract: the mine and
// obs packages, sync/context, and interface values (sinks, trackers).
func synchronized(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			if types.IsInterface(t) {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok {
				return false
			}
			pkg := named.Obj().Pkg()
			if pkg == nil {
				return false
			}
			switch pkg.Path() {
			case "cfpgrowth/internal/mine", "cfpgrowth/internal/obs", "sync", "context":
				return true
			}
			return false
		}
	}
}
