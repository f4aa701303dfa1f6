package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/summary"
)

// nodeID indexes the constraint graph's points-to variables. It is a
// plain int so copyOut feeds callgraph.SCCInts without conversion.
type nodeID = int

// nilNode marks an untracked expression (non-pointer type, unknown).
const nilNode nodeID = -1

// fieldKey addresses one field node: (abstract object, field name).
type fieldKey struct {
	obj   int
	field string
}

// access is one load or store constraint. Loads set dst (dst ⊇
// fld(pts(base), field)); stores set src (fld(pts(base), field) ⊇
// src, with src == nilNode for writes of untracked values — the site
// still matters to frozenro).
type access struct {
	base  nodeID
	field string
	dst   nodeID
	src   nodeID
	pos   token.Pos
	fn    *types.Func
}

// escEdge is one statically known escape site (EscCallee edges are
// materialized post-solve from the Escapes fixpoint).
type escEdge struct {
	node nodeID
	kind EscapeKind
	pos  token.Pos
	fn   *types.Func
}

// callRec is one resolved call site, kept for the Escapes fixpoint:
// argNodes follows summary's slot convention (receiver first).
type callRec struct {
	pos      token.Pos
	fn       *types.Func // caller
	callee   *types.Func
	argNodes []nodeID
}

// releaseRec is one release event (pool Put, arena Reset, release*
// call); the released objects are resolved after the solve.
type releaseRec struct {
	pos  token.Pos
	node nodeID
}

// litFrame tracks the enclosing function literal during generation so
// return statements route to the literal's "ret" field.
type litFrame struct {
	lit  *ast.FuncLit
	node nodeID
}

type solver struct {
	pass *analysis.Pass
	info *types.Info
	eff  summary.Lookup

	// Constraint graph.
	pts      []bits
	copyOut  [][]nodeID
	edgeSeen map[[2]nodeID]bool
	loads    []access
	stores   []access

	// Abstract objects.
	objs       []*Object
	globalObjs bits

	// Node maps.
	varN      map[types.Object]nodeID
	exprN     map[ast.Expr]nodeID
	fieldN    map[fieldKey]nodeID
	fieldsOf  map[int][]nodeID
	frameObj  map[types.Object]int
	phantomOf map[fieldKey]int

	// Per-function structure.
	declOrder []*types.Func
	retN      map[*types.Func][]nodeID
	named     map[*types.Func][]types.Object
	paramPh   map[*types.Func][]int
	joins     map[*types.Func]bool
	relRecs   map[*types.Func][]releaseRec
	escs      []escEdge
	calls     []callRec
	caps      map[*ast.FuncLit][]types.Object
	capSeen   map[*ast.FuncLit]map[types.Object]bool
	storesBy  map[*types.Func][]int

	// Directives.
	freeze   map[*types.Func]bool
	regionOf map[*types.Func]Region

	// Escapes fixpoint output.
	escMask map[*types.Func]*Escapes

	curFn   *types.Func
	curLits []litFrame
}

func newSolver(pass *analysis.Pass) *solver {
	return &solver{
		pass:      pass,
		info:      pass.TypesInfo,
		eff:       summary.Lookuper(pass),
		edgeSeen:  map[[2]nodeID]bool{},
		varN:      map[types.Object]nodeID{},
		exprN:     map[ast.Expr]nodeID{},
		fieldN:    map[fieldKey]nodeID{},
		fieldsOf:  map[int][]nodeID{},
		frameObj:  map[types.Object]int{},
		phantomOf: map[fieldKey]int{},
		retN:      map[*types.Func][]nodeID{},
		named:     map[*types.Func][]types.Object{},
		paramPh:   map[*types.Func][]int{},
		joins:     map[*types.Func]bool{},
		relRecs:   map[*types.Func][]releaseRec{},
		caps:      map[*ast.FuncLit][]types.Object{},
		capSeen:   map[*ast.FuncLit]map[types.Object]bool{},
		storesBy:  map[*types.Func][]int{},
		freeze:    map[*types.Func]bool{},
		regionOf:  map[*types.Func]Region{},
		escMask:   map[*types.Func]*Escapes{},
	}
}

// --- node and object construction ---

func (s *solver) newNode() nodeID {
	id := nodeID(len(s.pts))
	s.pts = append(s.pts, nil)
	s.copyOut = append(s.copyOut, nil)
	return id
}

func (s *solver) newObject(label string, region Region, pos token.Pos) *Object {
	o := &Object{ID: len(s.objs), Pos: pos, Label: label, Region: region,
		ParamSlot: -1, parent: -1, rootNode: nilNode}
	s.objs = append(s.objs, o)
	return o
}

// addCopy adds the copy edge src → dst (pts(dst) ⊇ pts(src)).
func (s *solver) addCopy(src, dst nodeID) bool {
	if src == nilNode || dst == nilNode || src == dst {
		return false
	}
	k := [2]nodeID{src, dst}
	if s.edgeSeen[k] {
		return false
	}
	s.edgeSeen[k] = true
	s.copyOut[src] = append(s.copyOut[src], dst)
	return true
}

// fieldNodeFor returns (creating on demand) the node holding the
// points-to set of one field of one abstract object.
func (s *solver) fieldNodeFor(obj int, field string) nodeID {
	k := fieldKey{obj, field}
	if n, ok := s.fieldN[k]; ok {
		return n
	}
	n := s.newNode()
	s.fieldN[k] = n
	s.fieldsOf[obj] = append(s.fieldsOf[obj], n)
	return n
}

// varNodeFor returns the node of a variable, seeding global pointees
// and frame objects for value aggregates on first touch.
func (s *solver) varNodeFor(obj types.Object) nodeID {
	if obj == nil {
		return nilNode
	}
	if n, ok := s.varN[obj]; ok {
		return n
	}
	v, ok := obj.(*types.Var)
	if !ok || !trackable(obj.Type()) {
		return nilNode
	}
	n := s.newNode()
	s.varN[obj] = n
	switch {
	case isGlobalVar(v):
		g := s.newObject("global "+v.Name(), Heap, v.Pos())
		g.Global = true
		g.opaque = true
		s.pts[n].add(g.ID)
		s.globalObjs.add(g.ID)
	case aggregate(v.Type()):
		// A value struct/array variable: its node holds its own frame
		// object, so &x, x.f = ..., and method calls on x all meet.
		f := s.newObject("var "+v.Name(), Frame, v.Pos())
		f.Fn = s.curFn
		s.frameObj[obj] = f.ID
		s.pts[n].add(f.ID)
	}
	return n
}

// --- directive and intrinsic recognition ---

const (
	freezeMarker = "//cfplint:freezes"
	regionMarker = "//cfplint:region "
	arenaPath    = "cfpgrowth/internal/arena"
)

func regionByName(name string) Region {
	switch name {
	case "heap":
		return Heap
	case "frame":
		return Frame
	case "arena":
		return Arena
	case "pool":
		return Pool
	case "frozen":
		return Frozen
	case "ring":
		return Ring
	}
	return 0
}

// scanDirectives reads //cfplint:freezes and //cfplint:region <name>
// from function doc comments.
func (s *solver) scanDirectives(fd *ast.FuncDecl, fn *types.Func) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		if c.Text == freezeMarker {
			s.freeze[fn] = true
		}
		if rest, ok := strings.CutPrefix(c.Text, regionMarker); ok {
			if r := regionByName(strings.TrimSpace(rest)); r != 0 {
				s.regionOf[fn] |= r
			}
		}
	}
}

// isGlobalVar reports whether v is a package-level variable (of this
// or an imported package).
func isGlobalVar(v *types.Var) bool {
	return !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// --- type classification ---

// trackable reports whether values of t can carry pointers the solver
// models: pointers, slices, maps, chans, funcs, interfaces, unsafe
// pointers, and value aggregates (structs/arrays, alias-approximated).
func trackable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface, *types.Struct, *types.Array:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Tuple:
		_ = u
	}
	return false
}

// aggregate reports whether t is a value struct or array.
func aggregate(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func (s *solver) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// --- generation ---

// generate builds the constraint graph for the whole package: a first
// pass creates every declared function's parameter and result nodes
// (so call sites can bind against them in any order), a second pass
// walks each body.
func (s *solver) generate() {
	decls := s.pass.FuncDecls()
	fns := make([]*types.Func, len(decls))
	for i, fd := range decls {
		fn, _ := s.info.Defs[fd.Name].(*types.Func)
		fns[i] = fn
		if fn == nil {
			continue
		}
		s.declOrder = append(s.declOrder, fn)
		s.scanDirectives(fd, fn)
		s.seedSignature(fd, fn)
	}
	for i, fd := range decls {
		if fns[i] == nil {
			continue
		}
		s.genBody(fd, fns[i])
	}
	for i := range s.stores {
		if fn := s.stores[i].fn; fn != nil {
			s.storesBy[fn] = append(s.storesBy[fn], i)
		}
	}
}

// seedSignature creates parameter nodes (each seeded with an opaque
// phantom standing for the caller's argument), result nodes, and the
// named-result variable list.
func (s *solver) seedSignature(fd *ast.FuncDecl, fn *types.Func) {
	s.curFn = fn
	slots := make([]int, 0, 8)
	slot := 0
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			names := f.Names
			if len(names) == 0 {
				names = []*ast.Ident{nil}
			}
			for _, name := range names {
				id := -1
				if name != nil && slot < maxSlots {
					if obj := s.info.Defs[name]; obj != nil && trackable(obj.Type()) {
						n := s.newNode()
						s.varN[obj] = n
						ph := s.newObject("param "+name.Name, Heap, name.Pos())
						ph.ParamSlot = slot
						ph.Fn = fn
						ph.opaque = true
						s.pts[n].add(ph.ID)
						id = ph.ID
					}
				}
				slots = append(slots, id)
				slot++
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	s.paramPh[fn] = slots

	sig := fn.Type().(*types.Signature)
	rets := make([]nodeID, sig.Results().Len())
	for i := range rets {
		rets[i] = s.newNode()
	}
	s.retN[fn] = rets
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := s.info.Defs[name]; obj != nil {
					s.named[fn] = append(s.named[fn], obj)
					s.varNodeFor(obj)
				}
			}
		}
	}
	s.curFn = nil
}

func (s *solver) genBody(fd *ast.FuncDecl, fn *types.Func) {
	s.curFn = fn
	s.curLits = nil
	// Join detection: a body that waits on a sync.WaitGroup is
	// credited with collecting its spawns (Escapes.Lasting excludes
	// joined goroutine captures; goroutinesafe checks the discipline).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := analysis.Callee(s.info, call); callee != nil &&
				callee.Name() == "Wait" && analysis.HasRecv(callee, "sync", "WaitGroup") {
				s.joins[fn] = true
			}
		}
		return true
	})
	s.genStmt(fd.Body)
	s.curFn = nil
}

func (s *solver) genStmts(list []ast.Stmt) {
	for _, st := range list {
		s.genStmt(st)
	}
}

func (s *solver) genStmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.genStmts(st.List)
	case *ast.LabeledStmt:
		s.genStmt(st.Stmt)
	case *ast.ExprStmt:
		s.genExpr(st.X)
	case *ast.AssignStmt:
		s.genAssign(st)
	case *ast.DeclStmt:
		s.genDecl(st)
	case *ast.IncDecStmt:
		// x.f++ and v[i]++ are writes; frozenro needs the site even
		// though the stored value carries no pointers.
		s.lhsStore(st.X, nilNode, st.Pos())
	case *ast.ReturnStmt:
		s.genReturn(st)
	case *ast.SendStmt:
		ch := s.genExpr(st.Chan)
		v := s.genExpr(st.Value)
		s.stores = append(s.stores, access{base: ch, field: "[]", src: v, pos: st.Pos(), fn: s.curFn})
		if v != nilNode {
			s.escs = append(s.escs, escEdge{node: v, kind: EscSend, pos: st.Pos(), fn: s.curFn})
		}
	case *ast.GoStmt:
		s.genGo(st)
	case *ast.DeferStmt:
		s.genCall(st.Call)
	case *ast.IfStmt:
		s.genStmt(st.Init)
		s.genExpr(st.Cond)
		s.genStmt(st.Body)
		s.genStmt(st.Else)
	case *ast.ForStmt:
		s.genStmt(st.Init)
		if st.Cond != nil {
			s.genExpr(st.Cond)
		}
		s.genStmt(st.Post)
		s.genStmt(st.Body)
	case *ast.RangeStmt:
		s.genRange(st)
	case *ast.SwitchStmt:
		s.genStmt(st.Init)
		if st.Tag != nil {
			s.genExpr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.genExpr(e)
			}
			s.genStmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		s.genTypeSwitch(st)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			s.genStmt(cc.Comm)
			s.genStmts(cc.Body)
		}
	}
}

func (s *solver) genDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				res := s.genCall(call)
				for i, name := range vs.Names {
					if i < len(res) {
						s.bindIdent(name, res[i], name.Pos())
					}
				}
				continue
			}
		}
		for i, name := range vs.Names {
			var src nodeID = nilNode
			if i < len(vs.Values) {
				src = s.genExpr(vs.Values[i])
			}
			s.bindIdent(name, src, name.Pos())
		}
	}
}

func (s *solver) genAssign(st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Compound assignment (+=, |=, ...): the stored value carries
		// no pointers, but the write site matters.
		for _, lhs := range st.Lhs {
			s.lhsStore(lhs, nilNode, st.Pos())
		}
		for _, rhs := range st.Rhs {
			s.genExpr(rhs)
		}
		return
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		switch rhs := ast.Unparen(st.Rhs[0]).(type) {
		case *ast.CallExpr:
			res := s.genCall(rhs)
			for i, lhs := range st.Lhs {
				var src nodeID = nilNode
				if i < len(res) {
					src = res[i]
				}
				s.lhsStore(lhs, src, st.Pos())
			}
		case *ast.TypeAssertExpr:
			s.lhsStore(st.Lhs[0], s.genExpr(rhs), st.Pos())
			s.lhsStore(st.Lhs[1], nilNode, st.Pos())
		case *ast.IndexExpr, *ast.UnaryExpr:
			// v, ok := m[k] / v, ok := <-ch
			s.lhsStore(st.Lhs[0], s.genExpr(st.Rhs[0]), st.Pos())
			s.lhsStore(st.Lhs[1], nilNode, st.Pos())
		default:
			s.genExpr(st.Rhs[0])
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			s.lhsStore(lhs, s.genExpr(st.Rhs[i]), st.Pos())
		}
	}
}

func (s *solver) genReturn(st *ast.ReturnStmt) {
	var res []nodeID
	for _, r := range st.Results {
		res = append(res, s.genExpr(r))
	}
	if len(s.curLits) > 0 {
		// Inside a literal: returns are retained only if the literal
		// itself is; route them through the closure object's "ret"
		// field instead of the declaring function's results.
		top := s.curLits[len(s.curLits)-1]
		for _, n := range res {
			if n != nilNode {
				s.stores = append(s.stores, access{base: top.node, field: "ret", src: n, pos: token.NoPos, fn: s.curFn})
			}
		}
		return
	}
	rets := s.retN[s.curFn]
	if len(st.Results) == 0 {
		// Naked return: named results flow out.
		for i, obj := range s.named[s.curFn] {
			if i < len(rets) {
				n := s.varNodeFor(obj)
				s.addCopy(n, rets[i])
				if n != nilNode {
					s.escs = append(s.escs, escEdge{node: n, kind: EscReturn, pos: st.Pos(), fn: s.curFn})
				}
			}
		}
		return
	}
	for i, n := range res {
		if i < len(rets) {
			s.addCopy(n, rets[i])
		}
		if n != nilNode {
			s.escs = append(s.escs, escEdge{node: n, kind: EscReturn, pos: st.Pos(), fn: s.curFn})
		}
	}
}

func (s *solver) genGo(st *ast.GoStmt) {
	s.genCall(st.Call)
	for _, a := range st.Call.Args {
		if n, ok := s.exprN[a]; ok && n != nilNode {
			s.escs = append(s.escs, escEdge{node: n, kind: EscSpawn, pos: st.Pos(), fn: s.curFn})
		}
	}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		// A spawned literal's captures outlive the statement.
		for _, v := range s.caps[fun] {
			if n, ok := s.varN[v]; ok {
				s.escs = append(s.escs, escEdge{node: n, kind: EscSpawn, pos: st.Pos(), fn: s.curFn})
			}
		}
	default:
		if n := s.genExpr(st.Call.Fun); n != nilNode {
			s.escs = append(s.escs, escEdge{node: n, kind: EscSpawn, pos: st.Pos(), fn: s.curFn})
		}
	}
}

func (s *solver) genRange(st *ast.RangeStmt) {
	base := s.genExpr(st.X)
	t := s.typeOf(st.X)
	var keyField, valField string
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer:
			valField = "[]"
		case *types.Map:
			keyField, valField = "#k", "[]"
		case *types.Chan:
			keyField = "[]"
		}
	}
	bind := func(e ast.Expr, field string) {
		if e == nil || field == "" || base == nilNode {
			return
		}
		dst := s.newNode()
		s.loads = append(s.loads, access{base: base, field: field, dst: dst})
		s.lhsStore(e, dst, st.Pos())
	}
	bind(st.Key, keyField)
	bind(st.Value, valField)
	s.genStmt(st.Body)
}

func (s *solver) genTypeSwitch(st *ast.TypeSwitchStmt) {
	s.genStmt(st.Init)
	var subject nodeID = nilNode
	switch a := st.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			subject = s.genExpr(ta.X)
		}
	case *ast.AssignStmt:
		if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
			subject = s.genExpr(ta.X)
		}
	}
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		// The per-case implicit variable aliases the switched value.
		if obj, ok := s.info.Implicits[cc].(*types.Var); ok {
			s.addCopy(subject, s.varNodeFor(obj))
		}
		s.genStmts(cc.Body)
	}
}

// bindIdent binds a defining identifier to src (var declarations and
// := bindings share it).
func (s *solver) bindIdent(id *ast.Ident, src nodeID, pos token.Pos) {
	if id.Name == "_" {
		return
	}
	obj := s.info.Defs[id]
	if obj == nil {
		obj = s.info.Uses[id]
	}
	n := s.varNodeFor(obj)
	s.addCopy(src, n)
	if v, ok := obj.(*types.Var); ok && isGlobalVar(v) && src != nilNode {
		s.escs = append(s.escs, escEdge{node: src, kind: EscGlobal, pos: pos, fn: s.curFn})
	}
}

// lhsStore routes one assignment target: identifier rebinds become
// copy edges, everything else becomes a store constraint whose site is
// recorded even for untracked values.
func (s *solver) lhsStore(lhs ast.Expr, src nodeID, pos token.Pos) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		s.bindIdent(lhs, src, pos)
	case *ast.SelectorExpr:
		// A qualified package global (pkg.Var = ...) has no base object.
		if id, ok := lhs.X.(*ast.Ident); ok {
			if _, isPkg := s.info.Uses[id].(*types.PkgName); isPkg {
				if obj := s.info.Uses[lhs.Sel]; obj != nil {
					n := s.varNodeFor(obj)
					s.addCopy(src, n)
					if src != nilNode {
						s.escs = append(s.escs, escEdge{node: src, kind: EscGlobal, pos: pos, fn: s.curFn})
					}
				}
				return
			}
		}
		base := s.genExpr(lhs.X)
		if base != nilNode {
			s.stores = append(s.stores, access{base: base, field: lhs.Sel.Name, src: src, pos: pos, fn: s.curFn})
		}
	case *ast.IndexExpr:
		base := s.genExpr(lhs.X)
		s.genExpr(lhs.Index)
		if base != nilNode {
			s.stores = append(s.stores, access{base: base, field: "[]", src: src, pos: pos, fn: s.curFn})
			if t := s.typeOf(lhs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && s.tracked(lhs.Index) {
					s.stores = append(s.stores, access{base: base, field: "#k", src: s.exprOrNil(lhs.Index), pos: token.NoPos, fn: s.curFn})
				}
			}
		}
	case *ast.StarExpr:
		base := s.genExpr(lhs.X)
		if base != nilNode {
			s.stores = append(s.stores, access{base: base, field: "*", src: src, pos: pos, fn: s.curFn})
		}
	}
}

func (s *solver) tracked(e ast.Expr) bool {
	n, ok := s.exprN[e]
	return ok && n != nilNode
}

func (s *solver) exprOrNil(e ast.Expr) nodeID {
	if n, ok := s.exprN[e]; ok {
		return n
	}
	return nilNode
}
