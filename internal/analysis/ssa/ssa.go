// Package ssa constructs a pruned static single-assignment form over
// the per-function control-flow graphs of internal/analysis/cfg, the
// substrate of the numeric abstract-interpretation layer
// (internal/analysis/interval and the intwidth / loopprogress
// analyzers and varintbounds' certification built on it).
//
// The form is deliberately lightweight: it versions *variables*, not
// expressions. Every definition of a tracked local variable — an
// assignment, an op-assignment, an increment, a range binding, an
// implicit zero initialization, or a parameter at entry — creates a
// Value; phi values merge versions at join blocks (placed at iterated
// dominance frontiers, pruned by liveness so a phi only exists where
// the variable is live); and Refine values version a variable through
// a conditional edge whose atomic condition mentions it, so a
// downstream consumer can narrow "i" to "i, given i < len(b) was
// taken". Renaming walks the dominator tree, so a refinement is in
// scope exactly where its branch outcome is guaranteed.
//
// Variables that escape scalar reasoning — address-taken locals,
// variables captured by function literals, package-level state, struct
// fields — are untracked: uses of them resolve to no Value, and
// consumers must treat them as unconstrained.
//
// # Constant edges and the debugchecks convention
//
// Conditional edges whose atomic condition is a compile-time boolean
// constant are pruned before dominance is computed: the dead arm never
// executes, so the live arm dominates everything after the join and
// refinements inside it stay in scope. One identifier is special: a
// condition that is exactly the identifier debugChecks is treated as
// constant true regardless of the build's actual constant value. The
// repo's assertion layer wraps its checks in `if debugChecks { ... }`
// blocks that compile to nothing by default and panic on violation
// under -tags debugchecks; DESIGN.md documents them as executable,
// CI-verified trust annotations, and varintbounds already credits
// assert* calls as audits. Treating the guard as true makes the
// assertion body dominate the code it protects, so an
// `assertf(P, ...)` call refines the variables P mentions for
// everything downstream — the numeric layer's version of the same
// accommodation.
package ssa

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis/cfg"
)

// Kind classifies an SSA value.
type Kind int

const (
	// Unknown is a value with no modeled origin: a use before any def
	// (dead code, untracked flows). Consumers treat it as ⊤.
	Unknown Kind = iota
	// Param is a function parameter or receiver at entry.
	Param
	// ZeroInit is an implicit zero value: a var declaration without an
	// initializer, or a named result at entry.
	ZeroInit
	// Def is an explicit definition (assignment, op-assignment,
	// inc/dec, range binding).
	Def
	// Phi merges the versions arriving over a join block's predecessor
	// edges.
	Phi
	// Refine narrows a version through one polarity of an atomic
	// branch condition that mentions the variable.
	Refine
)

// RangeRole distinguishes what a range statement binds a variable to.
type RangeRole int

const (
	// NotRange marks a non-range definition.
	NotRange RangeRole = iota
	// RangeIndex is the key of a range over a slice, array, string, or
	// integer: an int in [0, len(X)-1] (or [0, X-1] for integers).
	RangeIndex
	// RangeValue is the element value: unconstrained.
	RangeValue
)

// A Value is one SSA version of one source variable.
type Value struct {
	// ID is the value's position in Func.Values.
	ID int
	// Kind classifies the origin.
	Kind Kind
	// Var is the source variable this value versions.
	Var *types.Var
	// Block is the CFG block the value is created in (nil for Unknown).
	Block *cfg.Block

	// Expr, for a Def from a plain assignment x = Expr (or the operand
	// of an op-assignment x op= Expr), is the right-hand side. A Def
	// with no Expr, Call, Range, and zero Op is opaque (multi-value
	// non-call assignment, type-switch binding): treat as ⊤.
	Expr ast.Expr
	// Op, when not token.ILLEGAL, is the op-assignment token (ADD_ASSIGN,
	// SHR_ASSIGN, ...) or token.INC / token.DEC; the new value is
	// X (op) Expr, with Expr nil meaning the constant 1 for INC/DEC.
	Op token.Token
	// X is the prior version consumed by an op-assignment or inc/dec,
	// or the version a Refine narrows.
	X *Value

	// Call and Index identify one result slot of a multi-value call
	// assignment x, y := f().
	Call  *ast.CallExpr
	Index int

	// Range and Role describe a range-statement binding.
	Range *ast.RangeStmt
	Role  RangeRole

	// Args, for a Phi, holds the version arriving over each predecessor
	// edge of Block, parallel to Func.Preds of that block. A nil arg
	// marks an edge from an unreachable predecessor.
	Args []*Value

	// Cond and Taken, for a Refine, give the atomic condition and the
	// polarity of the edge the refinement lives on. The condition's
	// identifiers were resolved in the predecessor block, so
	// Func.UseOf maps them to the versions the condition tested.
	Cond  ast.Expr
	Taken bool
}

// A PredEdge is one incoming edge of a block.
type PredEdge struct {
	From *cfg.Block
	Edge cfg.Edge
}

// A Func is the SSA form of one function body.
type Func struct {
	// Graph is the underlying CFG.
	Graph *cfg.Graph
	// Values lists every value, indexed by ID.
	Values []*Value
	// UseOf resolves an identifier *use* of a tracked variable to the
	// version in scope at that point. Identifiers of untracked
	// variables (and uses in unreachable code) are absent.
	UseOf map[*ast.Ident]*Value
	// DefOf maps a defining identifier occurrence to the Value the
	// definition created.
	DefOf map[*ast.Ident]*Value
	// Uses is the def-use chain: for each value, the values whose
	// origin consumes it (phi operands, refine inputs, op-assign
	// inputs, and identifiers inside defining expressions).
	Uses map[*Value][]*Value
	// Params holds the Param values in declaration order (receiver
	// first when present).
	Params []*Value
	// Preds lists each block's incoming edges (by block index),
	// parallel to the Args of any phi in that block.
	Preds [][]PredEdge

	tracked map[*types.Var]bool
	unknown map[*types.Var]*Value
	info    *types.Info
	reach   []bool // per block index, after constant-edge pruning
}

// Tracked reports whether the variable is modeled by this SSA form.
func (f *Func) Tracked(v *types.Var) bool { return f.tracked[v] }

// Reachable reports whether the block survives constant-edge pruning
// (code behind a constant-false condition is unreachable).
func (f *Func) Reachable(b *cfg.Block) bool {
	return b != nil && b.Index < len(f.reach) && f.reach[b.Index]
}

// Obj resolves an identifier to the variable it uses or defines, or
// nil.
func (f *Func) Obj(id *ast.Ident) *types.Var {
	if o, ok := f.info.Defs[id]; ok {
		if v, ok := o.(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// Build constructs the SSA form of fd's body over its CFG. The graph
// must have been built from fd.Body.
func Build(fd *ast.FuncDecl, g *cfg.Graph, info *types.Info) *Func {
	fn := &Func{
		Graph:   g,
		UseOf:   map[*ast.Ident]*Value{},
		DefOf:   map[*ast.Ident]*Value{},
		Uses:    map[*Value][]*Value{},
		tracked: map[*types.Var]bool{},
		unknown: map[*types.Var]*Value{},
		info:    info,
	}
	b := &builder{fn: fn, g: g, info: info}
	b.collectTracked(fd)
	b.buildPreds()
	b.dominators()
	fn.reach = make([]bool, len(g.Blocks))
	for bi, n := range b.rpoNum {
		fn.reach[bi] = n >= 0
	}
	b.scanDefs(fd)
	b.liveness()
	b.placePhis()
	b.stacks = map[*types.Var][]*Value{}
	b.visit(g.Entry.Index, fd)
	b.defUse()
	return fn
}

type builder struct {
	fn   *Func
	g    *cfg.Graph
	info *types.Info

	rpo    []int // reachable blocks in reverse post-order
	rpoNum []int // block index -> position in rpo, -1 if unreachable
	idom   []int // block index -> immediate dominator block index
	child  [][]int

	events [][]refEvent // per block: variable reference events in order

	gen, kill, liveIn []map[*types.Var]bool

	defBlocks map[*types.Var]map[int]bool
	phis      [][]*Value // per block

	stacks map[*types.Var][]*Value
}

// refEvent is one ordered step of variable references inside a CFG
// node: the identifiers read, then the definitions made.
type refEvent struct {
	uses []*ast.Ident
	defs []defSite
}

type defSite struct {
	id    *ast.Ident
	v     *types.Var
	kind  Kind // Def, ZeroInit, or Refine (assert-call assumption)
	expr  ast.Expr
	op    token.Token
	call  *ast.CallExpr
	index int
	rng   *ast.RangeStmt
	role  RangeRole
	cond  ast.Expr // Refine: the assumed atomic condition
}

// collectTracked gathers the local variables the SSA form versions:
// parameters, receiver, named results, and body-declared locals,
// minus anything address-taken or referenced inside a function
// literal.
func (b *builder) collectTracked(fd *ast.FuncDecl) {
	add := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := b.info.Defs[id].(*types.Var); ok && !v.IsField() {
			b.fn.tracked[v] = true
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				add(n)
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				add(n)
			}
		}
	}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, n := range f.Names {
				add(n)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			add(id)
		}
		return true
	})
	// Exclusions. Address-taken: every identifier under a unary & may
	// alias the variable through the resulting pointer. Closure
	// capture: a variable referenced inside a function literal can be
	// redefined on any call, which the CFG does not model.
	drop := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := b.info.Defs[id].(*types.Var); ok {
					delete(b.fn.tracked, v)
				}
				if v, ok := b.info.Uses[id].(*types.Var); ok {
					delete(b.fn.tracked, v)
				}
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				drop(n.X)
			}
		case *ast.FuncLit:
			drop(n.Body)
			return false
		}
		return true
	})
}

// liveEdge reports whether a CFG edge can be taken: edges whose atomic
// condition is a boolean constant of the opposite polarity are pruned,
// with the identifier debugChecks forced to true (see the package
// comment).
func (b *builder) liveEdge(e cfg.Edge) bool {
	if e.Cond == nil {
		return true
	}
	if id, ok := ast.Unparen(e.Cond).(*ast.Ident); ok && id.Name == "debugChecks" {
		return e.Taken
	}
	if tv, ok := b.info.Types[e.Cond]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value) == e.Taken
	}
	return true
}

func (b *builder) buildPreds() {
	b.fn.Preds = make([][]PredEdge, len(b.g.Blocks))
	for _, blk := range b.g.Blocks {
		for _, e := range blk.Succs {
			if !b.liveEdge(e) {
				continue
			}
			b.fn.Preds[e.To.Index] = append(b.fn.Preds[e.To.Index], PredEdge{From: blk, Edge: e})
		}
	}
}

// dominators computes reverse post-order, immediate dominators
// (Cooper–Harvey–Kennedy iteration), and the dominator-tree children
// lists over the blocks reachable from entry.
func (b *builder) dominators() {
	n := len(b.g.Blocks)
	b.rpoNum = make([]int, n)
	for i := range b.rpoNum {
		b.rpoNum[i] = -1
	}
	var post []int
	seen := make([]bool, n)
	var dfs func(bi int)
	dfs = func(bi int) {
		seen[bi] = true
		for _, e := range b.g.Blocks[bi].Succs {
			if b.liveEdge(e) && !seen[e.To.Index] {
				dfs(e.To.Index)
			}
		}
		post = append(post, bi)
	}
	dfs(b.g.Entry.Index)
	b.rpo = make([]int, len(post))
	for i := range post {
		b.rpo[i] = post[len(post)-1-i]
		b.rpoNum[b.rpo[i]] = i
	}

	b.idom = make([]int, n)
	for i := range b.idom {
		b.idom[i] = -1
	}
	entry := b.g.Entry.Index
	b.idom[entry] = entry
	intersect := func(x, y int) int {
		for x != y {
			for b.rpoNum[x] > b.rpoNum[y] {
				x = b.idom[x]
			}
			for b.rpoNum[y] > b.rpoNum[x] {
				y = b.idom[y]
			}
		}
		return x
	}
	for changed := true; changed; {
		changed = false
		for _, bi := range b.rpo[1:] {
			newIdom := -1
			for _, pe := range b.fn.Preds[bi] {
				p := pe.From.Index
				if b.rpoNum[p] < 0 || b.idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && b.idom[bi] != newIdom {
				b.idom[bi] = newIdom
				changed = true
			}
		}
	}
	b.child = make([][]int, n)
	for _, bi := range b.rpo[1:] {
		b.child[b.idom[bi]] = append(b.child[b.idom[bi]], bi)
	}
}

// scanDefs extracts every block's reference events and records which
// blocks define which variables (entry implicitly defines parameters
// and named results).
func (b *builder) scanDefs(fd *ast.FuncDecl) {
	b.events = make([][]refEvent, len(b.g.Blocks))
	b.defBlocks = map[*types.Var]map[int]bool{}
	record := func(v *types.Var, bi int) {
		m := b.defBlocks[v]
		if m == nil {
			m = map[int]bool{}
			b.defBlocks[v] = m
		}
		m[bi] = true
	}
	for v := range b.fn.tracked {
		// Parameters, receiver, and named results are defined at entry;
		// body locals get their def blocks from the scan below. Marking
		// every tracked var at entry is harmless for locals (no phi is
		// placed where the variable is dead, and locals are dead before
		// their first def).
		record(v, b.g.Entry.Index)
	}
	for _, blk := range b.g.Blocks {
		for _, n := range blk.Nodes {
			evs := b.nodeRefs(n)
			b.events[blk.Index] = append(b.events[blk.Index], evs...)
			for _, ev := range evs {
				for _, d := range ev.defs {
					if d.kind != Refine {
						record(d.v, blk.Index)
					}
				}
			}
		}
	}
}

// obj resolves a (possibly defining) identifier to its variable.
func (b *builder) obj(id *ast.Ident) *types.Var {
	if o, ok := b.info.Defs[id]; ok {
		v, _ := o.(*types.Var)
		return v
	}
	v, _ := b.info.Uses[id].(*types.Var)
	return v
}

// collectUses gathers identifiers of tracked variables read inside n,
// skipping function-literal bodies and the given written identifiers.
func (b *builder) collectUses(n ast.Node, skip map[*ast.Ident]bool) []*ast.Ident {
	var out []*ast.Ident
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && !skip[id] {
			if v, ok := b.info.Uses[id].(*types.Var); ok && b.fn.tracked[v] {
				out = append(out, id)
			}
		}
		return true
	})
	return out
}

// nodeRefs lists the ordered variable-reference events of one CFG
// node.
func (b *builder) nodeRefs(n ast.Node) []refEvent {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return b.assignRefs(n)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if v := b.obj(id); v != nil && b.fn.tracked[v] {
				return []refEvent{{
					uses: b.collectUses(n.X, nil),
					defs: []defSite{{id: id, v: v, kind: Def, op: n.Tok}},
				}}
			}
		}
		return []refEvent{{uses: b.collectUses(n, nil)}}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return []refEvent{{uses: b.collectUses(n, nil)}}
		}
		var evs []refEvent
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			ev := refEvent{}
			for _, val := range vs.Values {
				ev.uses = append(ev.uses, b.collectUses(val, nil)...)
			}
			ev.uses = append(ev.uses, b.collectUses(vs.Type, nil)...)
			for i, name := range vs.Names {
				v := b.obj(name)
				if v == nil || !b.fn.tracked[v] {
					continue
				}
				d := defSite{id: name, v: v}
				switch {
				case len(vs.Values) == 0:
					d.kind = ZeroInit
				case len(vs.Values) == len(vs.Names):
					d.kind, d.expr = Def, vs.Values[i]
				default: // var a, b = f()
					d.kind, d.index = Def, i
					d.call, _ = ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				}
				ev.defs = append(ev.defs, d)
			}
			evs = append(evs, ev)
		}
		return evs
	case cfg.RangeHead:
		s := n.Range
		ev := refEvent{}
		bind := func(e ast.Expr, role RangeRole) {
			id, ok := e.(*ast.Ident)
			if !ok {
				return
			}
			v := b.obj(id)
			if v == nil || !b.fn.tracked[v] {
				return
			}
			ev.defs = append(ev.defs, defSite{id: id, v: v, kind: Def, rng: s, role: role})
		}
		if s.Key != nil {
			bind(s.Key, b.keyRole(s))
		}
		if s.Value != nil {
			bind(s.Value, RangeValue)
		}
		// The range expression's identifiers were bound where the CFG
		// placed the expression itself (before the loop), matching
		// range semantics: the ranged value is captured once.
		return []refEvent{ev}
	case *ast.ExprStmt:
		ev := refEvent{uses: b.collectUses(n, nil)}
		ev.defs = b.assertRefs(n)
		return []refEvent{ev}
	case ast.Stmt:
		return []refEvent{{uses: b.collectUses(n, nil)}}
	case ast.Expr:
		return []refEvent{{uses: b.collectUses(n, nil)}}
	}
	return nil
}

// assertRefs recognizes the repo's assertion convention: an expression
// statement calling a function whose name starts with "assert" assumes
// its first argument from that point on (see the package comment). The
// condition is decomposed through && into atomic conjuncts, each
// yielding a Refine for the numeric variables it mentions.
func (b *builder) assertRefs(n *ast.ExprStmt) []defSite {
	call, ok := ast.Unparen(n.X).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if !strings.HasPrefix(name, "assert") {
		return nil
	}
	var defs []defSite
	var conj func(e ast.Expr)
	conj = func(e ast.Expr) {
		e = ast.Unparen(e)
		if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.LAND {
			conj(be.X)
			conj(be.Y)
			return
		}
		seen := map[*types.Var]bool{}
		for _, id := range b.collectUses(e, nil) {
			v, _ := b.info.Uses[id].(*types.Var)
			if v == nil || seen[v] || !numericOrBool(v) {
				continue
			}
			seen[v] = true
			defs = append(defs, defSite{id: id, v: v, kind: Refine, cond: e})
		}
	}
	conj(call.Args[0])
	return defs
}

// keyRole reports what the range key variable iterates over.
func (b *builder) keyRole(s *ast.RangeStmt) RangeRole {
	tv, ok := b.info.Types[s.X]
	if !ok {
		return RangeValue
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t := t.(type) {
	case *types.Slice, *types.Array:
		return RangeIndex
	case *types.Basic:
		if t.Info()&(types.IsString|types.IsInteger) != 0 {
			return RangeIndex
		}
	}
	return RangeValue // map keys, channel elements
}

func (b *builder) assignRefs(n *ast.AssignStmt) []refEvent {
	ev := refEvent{}
	skip := map[*ast.Ident]bool{}
	if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	ev.uses = b.collectUses(n, skip)
	mkDef := func(l ast.Expr) (defSite, bool) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return defSite{}, false
		}
		v := b.obj(id)
		if v == nil || !b.fn.tracked[v] {
			return defSite{}, false
		}
		return defSite{id: id, v: v, kind: Def}, true
	}
	switch {
	case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
		if len(n.Rhs) == len(n.Lhs) {
			for i, l := range n.Lhs {
				if d, ok := mkDef(l); ok {
					d.expr = n.Rhs[i]
					ev.defs = append(ev.defs, d)
				}
			}
		} else { // x, y := f()  /  v, ok := m[k]  /  v, ok := x.(T)
			call, _ := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			for i, l := range n.Lhs {
				if d, ok := mkDef(l); ok {
					d.call, d.index = call, i
					ev.defs = append(ev.defs, d)
				}
			}
		}
	default: // op-assignment: x op= e reads x and writes x
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if d, ok := mkDef(n.Lhs[0]); ok {
				d.op, d.expr = n.Tok, n.Rhs[0]
				ev.defs = append(ev.defs, d)
			}
		}
	}
	return []refEvent{ev}
}

// liveness computes per-block live-in variable sets by backward
// iteration, the pruning input for phi placement.
func (b *builder) liveness() {
	n := len(b.g.Blocks)
	b.gen = make([]map[*types.Var]bool, n)
	b.kill = make([]map[*types.Var]bool, n)
	b.liveIn = make([]map[*types.Var]bool, n)
	for i := 0; i < n; i++ {
		b.gen[i] = map[*types.Var]bool{}
		b.kill[i] = map[*types.Var]bool{}
		b.liveIn[i] = map[*types.Var]bool{}
		for _, ev := range b.events[i] {
			for _, id := range ev.uses {
				v, _ := b.info.Uses[id].(*types.Var)
				if v != nil && b.fn.tracked[v] && !b.kill[i][v] {
					b.gen[i][v] = true
				}
			}
			for _, d := range ev.defs {
				// An op-assign or inc/dec reads the variable too, and an
				// assert refinement only reads it (the unrefined version
				// still reaches later blocks at joins).
				if (d.op != token.ILLEGAL || d.kind == Refine) && !b.kill[i][d.v] {
					b.gen[i][d.v] = true
				}
				if d.kind != Refine {
					b.kill[i][d.v] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(b.rpo) - 1; i >= 0; i-- {
			bi := b.rpo[i]
			for _, e := range b.g.Blocks[bi].Succs {
				if !b.liveEdge(e) {
					continue
				}
				for v := range b.liveIn[e.To.Index] {
					if !b.kill[bi][v] && !b.liveIn[bi][v] && !b.gen[bi][v] {
						b.gen[bi][v] = true
						changed = true
					}
				}
			}
			for v := range b.gen[bi] {
				if !b.liveIn[bi][v] {
					b.liveIn[bi][v] = true
					changed = true
				}
			}
		}
	}
}

// placePhis places pruned phis at the iterated dominance frontier of
// each variable's definition blocks.
func (b *builder) placePhis() {
	// Dominance frontiers.
	df := make([]map[int]bool, len(b.g.Blocks))
	for _, bi := range b.rpo {
		var rp []int
		for _, pe := range b.fn.Preds[bi] {
			if b.rpoNum[pe.From.Index] >= 0 {
				rp = append(rp, pe.From.Index)
			}
		}
		if len(rp) < 2 {
			continue
		}
		for _, p := range rp {
			for r := p; r != b.idom[bi]; r = b.idom[r] {
				if df[r] == nil {
					df[r] = map[int]bool{}
				}
				df[r][bi] = true
			}
		}
	}
	b.phis = make([][]*Value, len(b.g.Blocks))
	for v, defs := range b.defBlocks {
		work := make([]int, 0, len(defs))
		for bi := range defs {
			work = append(work, bi)
		}
		placed := map[int]bool{}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for f := range df[d] {
				if placed[f] || !b.liveIn[f][v] {
					continue
				}
				placed[f] = true
				phi := b.newValue(&Value{
					Kind:  Phi,
					Var:   v,
					Block: b.g.Blocks[f],
					Args:  make([]*Value, len(b.fn.Preds[f])),
				})
				b.phis[f] = append(b.phis[f], phi)
				if !defs[f] {
					defs[f] = true
					work = append(work, f)
				}
			}
		}
	}
}

func (b *builder) newValue(v *Value) *Value {
	v.ID = len(b.fn.Values)
	b.fn.Values = append(b.fn.Values, v)
	return v
}

func (b *builder) top(v *types.Var) *Value {
	if s := b.stacks[v]; len(s) > 0 {
		return s[len(s)-1]
	}
	u := b.fn.unknown[v]
	if u == nil {
		u = b.newValue(&Value{Kind: Unknown, Var: v})
		b.fn.unknown[v] = u
	}
	return u
}

// numericOrBool reports whether refining the variable is useful: a
// slice or struct gains nothing from a comparison refinement, and
// re-versioning a slice would break the version identity that
// symbolic len-bounds depend on.
func numericOrBool(v *types.Var) bool {
	bt, ok := v.Type().Underlying().(*types.Basic)
	return ok && bt.Info()&(types.IsInteger|types.IsBoolean|types.IsFloat) != 0
}

// visit renames one dominator-tree subtree.
func (b *builder) visit(bi int, fd *ast.FuncDecl) {
	var pushed []*types.Var
	push := func(v *types.Var, val *Value) {
		b.stacks[v] = append(b.stacks[v], val)
		pushed = append(pushed, v)
	}
	blk := b.g.Blocks[bi]

	for _, phi := range b.phis[bi] {
		push(phi.Var, phi)
	}
	// Synthetic entry definitions: receiver, parameters, named results.
	if bi == b.g.Entry.Index {
		bindFields := func(fl *ast.FieldList, kind Kind) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					v, _ := b.info.Defs[name].(*types.Var)
					if v == nil || !b.fn.tracked[v] {
						continue
					}
					val := b.newValue(&Value{Kind: kind, Var: v, Block: blk})
					b.fn.DefOf[name] = val
					if kind == Param {
						b.fn.Params = append(b.fn.Params, val)
					}
					push(v, val)
				}
			}
		}
		bindFields(fd.Recv, Param)
		bindFields(fd.Type.Params, Param)
		bindFields(fd.Type.Results, ZeroInit)
	}
	// Branch-condition refinement: a block entered only over one
	// conditional edge knows the atomic condition's outcome.
	if pes := b.fn.Preds[bi]; len(pes) == 1 && pes[0].Edge.Cond != nil {
		cond, taken := pes[0].Edge.Cond, pes[0].Edge.Taken
		for _, id := range b.collectUses(cond, nil) {
			v, _ := b.info.Uses[id].(*types.Var)
			if v == nil || !numericOrBool(v) {
				continue
			}
			rv := b.newValue(&Value{
				Kind:  Refine,
				Var:   v,
				Block: blk,
				X:     b.top(v),
				Cond:  cond,
				Taken: taken,
			})
			push(v, rv)
		}
	}

	for _, ev := range b.events[bi] {
		for _, id := range ev.uses {
			if v, ok := b.info.Uses[id].(*types.Var); ok && b.fn.tracked[v] {
				b.fn.UseOf[id] = b.top(v)
			}
		}
		for _, d := range ev.defs {
			if d.kind == Refine {
				rv := b.newValue(&Value{
					Kind:  Refine,
					Var:   d.v,
					Block: blk,
					X:     b.top(d.v),
					Cond:  d.cond,
					Taken: true,
				})
				push(d.v, rv)
				continue
			}
			val := b.newValue(&Value{
				Kind:  d.kind,
				Var:   d.v,
				Block: blk,
				Expr:  d.expr,
				Op:    d.op,
				Call:  d.call,
				Index: d.index,
				Range: d.rng,
				Role:  d.role,
			})
			if d.op != token.ILLEGAL {
				val.X = b.top(d.v)
			}
			b.fn.DefOf[d.id] = val
			push(d.v, val)
		}
	}

	// Fill the phi argument slots of every successor reached from here.
	for _, e := range blk.Succs {
		if !b.liveEdge(e) {
			continue
		}
		ti := e.To.Index
		for slot, pe := range b.fn.Preds[ti] {
			if pe.From != blk {
				continue
			}
			for _, phi := range b.phis[ti] {
				phi.Args[slot] = b.top(phi.Var)
			}
		}
	}

	for _, c := range b.child[bi] {
		b.visit(c, fd)
	}

	for i := len(pushed) - 1; i >= 0; i-- {
		v := pushed[i]
		b.stacks[v] = b.stacks[v][:len(b.stacks[v])-1]
	}
}

// defUse fills Func.Uses from each value's origin.
func (b *builder) defUse() {
	add := func(consumer, input *Value) {
		if input == nil {
			return
		}
		b.fn.Uses[input] = append(b.fn.Uses[input], consumer)
	}
	exprDeps := func(consumer *Value, e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				add(consumer, b.fn.UseOf[id])
			}
			return true
		})
	}
	for _, v := range b.fn.Values {
		switch v.Kind {
		case Phi:
			for _, a := range v.Args {
				add(v, a)
			}
		case Refine:
			add(v, v.X)
			exprDeps(v, v.Cond)
		case Def:
			add(v, v.X)
			exprDeps(v, v.Expr)
			if v.Range != nil {
				exprDeps(v, v.Range.X)
			}
		}
	}
}
