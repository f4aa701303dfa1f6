// Package lockorder guards the locking discipline of the synchronized
// layers (internal/obs, internal/core's parallel driver). It solves a
// must-held-set dataflow problem over each function's CFG and checks
// three rules:
//
//  1. Lock order is globally consistent: if any path acquires lock B
//     while holding lock A, no path may acquire A while holding B
//     (or complete any longer cycle). Inconsistent order is the
//     classic two-goroutine deadlock.
//  2. No channel send happens while a lock is held: a slow (or dead)
//     receiver would stall every other user of the lock.
//  3. No sink emission (an interface method named Emit or Record)
//     happens while a lock is held: sinks are caller-supplied code
//     that may block or take locks of its own — obs.Recorder
//     deliberately snapshots under its mutex and calls Record after
//     unlocking, and this rule keeps it that way.
//
// Locks are identified by their declaration: the mutex field of a
// struct type stands for that field in every instance, which is the
// granularity at which an ordering policy is statable. Deferred
// unlocks do not release for the purposes of the held set (they run at
// return), so `mu.Lock(); defer mu.Unlock()` holds to the end of the
// function — which is precisely when sends and emissions under it are
// dangerous.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer is the lockorder rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `requires a globally consistent mutex acquisition order and no
channel send or sink emission — a direct interface Emit/Record call,
or a call to a helper whose summary says it emits — while a mutex is
held`,
	Requires:  []*analysis.Analyzer{summary.Analyzer},
	FactTypes: []analysis.Fact{new(summary.Effects)},
	Run:       run,
}

// heldSet maps each held lock to the position where it was acquired.
type heldSet map[types.Object]token.Pos

type lockProblem struct {
	pass *analysis.Pass
}

func (p *lockProblem) Entry() heldSet { return heldSet{} }

func (p *lockProblem) Clone(s heldSet) heldSet {
	out := make(heldSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (p *lockProblem) Equal(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// Join intersects: a lock counts as held only when held on all paths,
// so every report is about a guaranteed-held lock, never a maybe.
func (p *lockProblem) Join(a, b heldSet) heldSet {
	out := make(heldSet)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (p *lockProblem) Refine(s heldSet, cond ast.Expr, taken bool) heldSet { return s }

func (p *lockProblem) Transfer(s heldSet, n ast.Node) heldSet {
	if _, ok := n.(*ast.DeferStmt); ok {
		return s // deferred unlocks release at return, after everything we check
	}
	if _, ok := n.(*ast.GoStmt); ok {
		return s // runs on another goroutine with its own (empty) held set
	}
	dataflow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, _, acquire, ok := p.lockCall(call); ok {
			if acquire {
				s[obj] = call.Pos()
			} else {
				delete(s, obj)
			}
		}
		return true
	})
	return s
}

// lockCall recognizes m.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex reachable through a resolvable name, returning the
// lock's identity object and a printable name.
func (p *lockProblem) lockCall(call *ast.CallExpr) (types.Object, string, bool, bool) {
	fn := analysis.Callee(p.pass.TypesInfo, call)
	if fn == nil {
		return nil, "", false, false
	}
	if !analysis.HasRecv(fn, "sync", "Mutex") && !analysis.HasRecv(fn, "sync", "RWMutex") {
		return nil, "", false, false
	}
	var acquire bool
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, "", false, false // TryLock etc.: out of scope
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false, false
	}
	obj := analysis.Uses(p.pass.TypesInfo, sel.X)
	if obj == nil {
		return nil, "", false, false
	}
	return obj, types.ExprString(sel.X), acquire, true
}

// orderEdge records "to was acquired while from was held".
type orderEdge struct {
	from, to types.Object
	pos      token.Pos
}

type runState struct {
	prob   *lockProblem
	lookup summary.Lookup
	edges  []orderEdge
	adj    map[types.Object]map[types.Object]bool
	names  map[types.Object]string
}

func run(pass *analysis.Pass) error {
	st := &runState{
		prob:   &lockProblem{pass: pass},
		lookup: summary.Lookuper(pass),
		adj:    map[types.Object]map[types.Object]bool{},
		names:  map[types.Object]string{},
	}
	for _, fd := range pass.FuncDecls() {
		st.checkBody(pass, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				st.checkBody(pass, lit.Body)
			}
			return true
		})
	}
	st.reportCycles(pass)
	return nil
}

// checkBody solves the held-set problem for one function body and
// sweeps it for violations and order edges.
func (st *runState) checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	res := dataflow.Forward[heldSet](g, st.prob)
	res.Iterate(g, st.prob, func(n ast.Node, before heldSet) {
		st.visit(pass, n, before)
	})
}

func (st *runState) visit(pass *analysis.Pass, n ast.Node, before heldSet) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return // mirrors Transfer: neither runs here
	}
	// Track the held set as we scan within the node, so multi-call
	// expressions like mu.Lock() inside one statement stay precise.
	s := st.prob.Clone(before)
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			for obj := range s {
				pass.Reportf(m.Arrow,
					"channel send while holding %s: a slow receiver stalls every other user of the lock",
					st.names[obj])
			}
		case *ast.CallExpr:
			if obj, name, acquire, ok := st.prob.lockCall(m); ok {
				if _, taken := st.names[obj]; !taken {
					st.names[obj] = name
				}
				if acquire {
					if _, held := s[obj]; held {
						pass.Reportf(m.Pos(),
							"%s locked again while already held on this path: self-deadlock", name)
					}
					for held := range s {
						if held != obj { // self-deadlock already reported; not an order edge
							st.addEdge(held, obj, m.Pos())
						}
					}
					s[obj] = m.Pos()
				} else {
					delete(s, obj)
				}
				return true
			}
			if fn := sinkMethod(pass, m); fn != "" {
				for obj := range s {
					pass.Reportf(m.Pos(),
						"%s called while holding %s: the sink may block or take locks of its own; release %s before emitting",
						fn, st.names[obj], st.names[obj])
				}
				return true
			}
			// A helper that emits somewhere below it (per its summary) is
			// as dangerous under a lock as the Emit itself: the
			// caller-supplied sink it reaches may block with our mutex
			// held.
			if len(s) > 0 {
				if fn := analysis.Callee(pass.TypesInfo, m); fn != nil {
					if eff := st.lookup(fn); eff != nil && eff.EmitsSink {
						for obj := range s {
							pass.Reportf(m.Pos(),
								"call to %s, which emits to a caller-supplied sink (per its summary), while holding %s; the sink may block — release %s before calling",
								fn.Name(), st.names[obj], st.names[obj])
						}
					}
				}
			}
		}
		return true
	})
}

// sinkMethod reports calls of interface methods named Emit or Record —
// caller-supplied sink code whose blocking behavior is unknown.
func sinkMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Emit" && fn.Name() != "Record") {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return ""
	}
	return types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + "." + fn.Name()
}

func (st *runState) addEdge(from, to types.Object, pos token.Pos) {
	if st.adj[from] == nil {
		st.adj[from] = map[types.Object]bool{}
	}
	if !st.adj[from][to] || !hasRecordedEdge(st.edges, from, to, pos) {
		st.edges = append(st.edges, orderEdge{from: from, to: to, pos: pos})
	}
	st.adj[from][to] = true
}

// hasRecordedEdge dedups identical (from, to, pos) triples, which the
// fixpoint sweep would otherwise record once per reaching path.
func hasRecordedEdge(edges []orderEdge, from, to types.Object, pos token.Pos) bool {
	for _, e := range edges {
		if e.from == from && e.to == to && e.pos == pos {
			return true
		}
	}
	return false
}

// reportCycles flags every acquisition edge that participates in a
// cycle of the global order graph.
func (st *runState) reportCycles(pass *analysis.Pass) {
	reported := map[token.Pos]bool{}
	for _, e := range st.edges {
		if reported[e.pos] || !st.reaches(e.to, e.from) {
			continue
		}
		reported[e.pos] = true
		if st.adj[e.to][e.from] {
			pass.Reportf(e.pos,
				"%s acquired while holding %s, but elsewhere they are acquired in the opposite order: deadlock risk",
				st.names[e.to], st.names[e.from])
			continue
		}
		pass.Reportf(e.pos,
			"%s acquired while holding %s completes a cycle in the lock order: deadlock risk",
			st.names[e.to], st.names[e.from])
	}
}

// reaches reports whether the order graph has a path from a to b.
func (st *runState) reaches(a, b types.Object) bool {
	seen := map[types.Object]bool{}
	var dfs func(types.Object) bool
	dfs = func(n types.Object) bool {
		if n == b {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for m := range st.adj[n] {
			if dfs(m) {
				return true
			}
		}
		return false
	}
	return dfs(a)
}
