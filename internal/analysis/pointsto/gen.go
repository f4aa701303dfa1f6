package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
)

// genExpr evaluates one expression to the node holding its points-to
// set (nilNode for untracked values), memoizing per AST node so
// consumers can query any expression the solver saw.
func (s *solver) genExpr(e ast.Expr) nodeID {
	if e == nil {
		return nilNode
	}
	if n, ok := s.exprN[e]; ok {
		return n
	}
	n := s.genExprUncached(e)
	s.exprN[e] = n
	return n
}

func (s *solver) genExprUncached(e ast.Expr) nodeID {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return s.genExpr(e.X)
	case *ast.Ident:
		obj := s.info.Uses[e]
		if obj == nil {
			obj = s.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			s.noteCapture(v)
			return s.varNodeFor(v)
		}
		return nilNode
	case *ast.SelectorExpr:
		// Qualified package globals read like identifiers.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := s.info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := s.info.Uses[e.Sel].(*types.Var); ok {
					return s.varNodeFor(v)
				}
				return nilNode
			}
		}
		base := s.genExpr(e.X)
		if base == nilNode || !trackable(s.typeOf(e)) {
			return nilNode
		}
		dst := s.newNode()
		s.loads = append(s.loads, access{base: base, field: e.Sel.Name, dst: dst})
		return dst
	case *ast.StarExpr:
		base := s.genExpr(e.X)
		if base == nilNode {
			return nilNode
		}
		if aggregate(s.typeOf(e)) {
			// *p of a struct is a value copy; at object granularity the
			// copy aliases the original (documented approximation).
			return base
		}
		dst := s.newNode()
		s.loads = append(s.loads, access{base: base, field: "*", dst: dst})
		return dst
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			return s.genAddrOf(e)
		case token.ARROW:
			base := s.genExpr(e.X)
			if base == nilNode || !trackable(s.typeOf(e)) {
				return nilNode
			}
			dst := s.newNode()
			s.loads = append(s.loads, access{base: base, field: "[]", dst: dst})
			return dst
		default:
			s.genExpr(e.X)
			return nilNode
		}
	case *ast.BinaryExpr:
		s.genExpr(e.X)
		s.genExpr(e.Y)
		return nilNode
	case *ast.IndexExpr:
		base := s.genExpr(e.X)
		s.genExpr(e.Index)
		if base == nilNode || !trackable(s.typeOf(e)) {
			return nilNode
		}
		if aggregate(s.typeOf(e)) {
			// Elements of aggregate type alias the backing object.
			return base
		}
		dst := s.newNode()
		s.loads = append(s.loads, access{base: base, field: "[]", dst: dst})
		return dst
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				s.genExpr(b)
			}
		}
		// A reslice shares the backing object.
		return s.genExpr(e.X)
	case *ast.TypeAssertExpr:
		// Unboxing (and boxing, via plain copies) preserves the
		// concrete objects behind the interface.
		return s.genExpr(e.X)
	case *ast.CompositeLit:
		return s.genComposite(e)
	case *ast.FuncLit:
		return s.genLit(e)
	case *ast.CallExpr:
		res := s.genCall(e)
		if len(res) > 0 {
			return res[0]
		}
		return nilNode
	}
	return nilNode
}

// genAddrOf handles &x, &x.f, &x[i], &T{...}.
func (s *solver) genAddrOf(e *ast.UnaryExpr) nodeID {
	switch x := ast.Unparen(e.X).(type) {
	case *ast.CompositeLit:
		return s.genComposite(x)
	case *ast.Ident:
		v, ok := s.info.Uses[x].(*types.Var)
		if !ok {
			return nilNode
		}
		s.noteCapture(v)
		n := s.varNodeFor(v)
		if aggregate(v.Type()) || isGlobalVar(v) {
			// The variable node already holds its frame/global object;
			// &x points at exactly that.
			return n
		}
		// Address-taken scalar: a frame object whose pointee cell and
		// the variable alias each other.
		id, ok := s.frameObj[v]
		if !ok {
			f := s.newObject("&"+v.Name(), Frame, x.Pos())
			f.Fn = s.curFn
			s.frameObj[v] = f.ID
			id = f.ID
			cell := s.fieldNodeFor(id, "*")
			s.addCopy(n, cell)
			s.addCopy(cell, n)
		}
		p := s.newNode()
		s.pts[p].add(id)
		return p
	default:
		// &x.f, &x[i]: an interior pointer aliases the whole base
		// object (coarse, but sound for the region checks).
		return s.genExpr(e.X)
	}
}

// genComposite allocates one abstract object for a composite literal
// and stores its element expressions into the matching fields.
func (s *solver) genComposite(cl *ast.CompositeLit) nodeID {
	obj := s.newObject("composite literal", Heap, cl.Pos())
	obj.Fn = s.curFn
	n := s.newNode()
	s.pts[n].add(obj.ID)
	t := s.typeOf(cl)
	if t == nil {
		return n
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		// &T{} types as *T; the object is the T.
		if st, ok := u.Elem().Underlying().(*types.Struct); ok {
			s.genStructLit(cl, st, n)
		}
	case *types.Struct:
		s.genStructLit(cl, u, n)
	case *types.Slice, *types.Array:
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			src := s.genExpr(elt)
			s.stores = append(s.stores, access{base: n, field: "[]", src: src, pos: elt.Pos(), fn: s.curFn})
		}
	case *types.Map:
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			s.stores = append(s.stores, access{base: n, field: "#k", src: s.genExpr(kv.Key), pos: kv.Pos(), fn: s.curFn})
			s.stores = append(s.stores, access{base: n, field: "[]", src: s.genExpr(kv.Value), pos: kv.Pos(), fn: s.curFn})
		}
	}
	return n
}

func (s *solver) genStructLit(cl *ast.CompositeLit, st *types.Struct, n nodeID) {
	for i, elt := range cl.Elts {
		field := ""
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
			val = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i).Name()
		}
		src := s.genExpr(val)
		if field != "" {
			s.stores = append(s.stores, access{base: n, field: field, src: src, pos: val.Pos(), fn: s.curFn})
		}
	}
}

// genLit creates a closure object for a function literal, records its
// captured variables, models each capture as a store into the object,
// and walks the body with the literal frame pushed (so its returns
// route to the object's "ret" field).
func (s *solver) genLit(lit *ast.FuncLit) nodeID {
	obj := s.newObject("func literal", Heap, lit.Pos())
	obj.Fn = s.curFn
	n := s.newNode()
	s.pts[n].add(obj.ID)

	// Literal parameters are opaque like declared-function parameters
	// (the caller may be dynamic), but carry no fact slot.
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				if v := s.info.Defs[name]; v != nil && trackable(v.Type()) {
					pn := s.varNodeFor(v)
					ph := s.newObject("lit param "+name.Name, Heap, name.Pos())
					ph.Fn = s.curFn
					ph.opaque = true
					s.pts[pn].add(ph.ID)
				}
			}
		}
	}

	s.curLits = append(s.curLits, litFrame{lit: lit, node: n})
	s.genStmt(lit.Body)
	s.curLits = s.curLits[:len(s.curLits)-1]

	// Captures were noted during the walk; store each into the closure
	// object so the capture set travels with it (a retained closure
	// retains everything it closed over).
	for _, v := range s.caps[lit] {
		if vn, ok := s.varN[v]; ok {
			s.stores = append(s.stores, access{base: n, field: "capt " + v.Name(), src: vn, pos: token.NoPos, fn: s.curFn})
		}
	}
	return n
}

// noteCapture records v as captured by every literal on the current
// stack that v's declaration lies outside of. This is the semantic
// replacement for poolreturn's old lexical ident scan: a shadowing
// redeclaration inside the literal resolves to a different object and
// is not recorded.
func (s *solver) noteCapture(v *types.Var) {
	if v == nil || v.IsField() || isGlobalVar(v) || !trackable(v.Type()) {
		return
	}
	for _, lf := range s.curLits {
		if v.Pos() >= lf.lit.Pos() && v.Pos() < lf.lit.End() {
			continue // declared inside this literal
		}
		seen := s.capSeen[lf.lit]
		if seen == nil {
			seen = map[types.Object]bool{}
			s.capSeen[lf.lit] = seen
		}
		if !seen[v] {
			seen[v] = true
			s.caps[lf.lit] = append(s.caps[lf.lit], v)
		}
	}
}

// --- calls ---

// genCall evaluates a call expression and returns one node per result.
func (s *solver) genCall(call *ast.CallExpr) []nodeID {
	fun := ast.Unparen(call.Fun)

	// Conversions: alias-preserving for pointer-shaped operands, fresh
	// for representation changes ([]byte(string)).
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		arg := s.genExpr(call.Args[0])
		if !trackable(tv.Type) {
			return []nodeID{nilNode}
		}
		if arg != nilNode {
			return []nodeID{arg}
		}
		obj := s.newObject("conversion", Heap, call.Pos())
		obj.Fn = s.curFn
		n := s.newNode()
		s.pts[n].add(obj.ID)
		return []nodeID{n}
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			return s.genBuiltin(b.Name(), call)
		}
	}

	// Directly invoked literal: bind arguments to its parameters and
	// read results back from the closure object's "ret" field.
	if lit, ok := fun.(*ast.FuncLit); ok {
		litN := s.genExpr(lit)
		s.bindLitArgs(lit, call)
		dst := s.newNode()
		s.loads = append(s.loads, access{base: litN, field: "ret", dst: dst})
		return []nodeID{dst}
	}

	fn := analysis.Callee(s.info, call)
	argExprs := callArgExprs(call, fn)
	argNodes := make([]nodeID, len(argExprs))
	for i, a := range argExprs {
		argNodes[i] = s.genExpr(a)
	}

	if fn == nil {
		// Dynamic dispatch: ⊤ per the framework's policy — results are
		// opaque-free heap objects, arguments assumed unretained.
		s.genExpr(call.Fun)
		return s.freshResults(call, "dynamic call result", Heap, nilNode)
	}

	s.recordRelease(call, fn, argNodes)
	s.calls = append(s.calls, callRec{pos: call.Pos(), fn: s.curFn, callee: fn, argNodes: argNodes})

	// Region intrinsics and directives decide what a call hands out
	// before any body binding: the result of a freezer is a *new*
	// frozen object (the freeze boundary), the result of a pool getter
	// is a pooled root, and an arena accessor result is an interior
	// pointer rooted at the receiver's arena.
	if analysis.HasRecv(fn, arenaPath, "Arena") && s.callHasTrackedResult(call) {
		obj := s.newObject("arena memory from "+fn.Name(), Arena, call.Pos())
		obj.Fn = s.curFn
		obj.Derived = true
		obj.opaque = true
		if len(argNodes) > 0 {
			obj.rootNode = argNodes[0]
		}
		n := s.newNode()
		s.pts[n].add(obj.ID)
		return s.fillResults(call, n)
	}
	region := s.callRegion(fn)
	if region != 0 && s.callHasTrackedResult(call) {
		obj := s.newObject("result of "+fn.Name(), region, call.Pos())
		obj.Fn = s.curFn
		obj.opaque = true
		n := s.newNode()
		s.pts[n].add(obj.ID)
		return s.fillResults(call, n)
	}

	// In-package callee with a body: bind arguments to its parameter
	// nodes, read its result nodes.
	if slots, ok := s.paramPh[fn]; ok {
		s.bindDeclArgs(fn, slots, argNodes)
		rets := s.retN[fn]
		out := make([]nodeID, len(rets))
		for i, r := range rets {
			n := s.newNode()
			s.addCopy(r, n)
			out[i] = n
		}
		if len(out) == 0 {
			out = []nodeID{nilNode}
		}
		return out
	}

	// Cross-package callee: compose through its Points fact.
	var pf Points
	if s.pass.ImportObjectFact(fn, &pf) {
		out := s.freshResults(call, "result of "+fn.Name(), pf.Fresh, nilNode)
		for i, an := range argNodes {
			if an == nilNode || i >= maxSlots {
				continue
			}
			if pf.ReturnsParams&(1<<i) != 0 {
				for _, r := range out {
					s.addCopy(an, r)
				}
			}
			if pf.ReturnsParamMem&(1<<i) != 0 {
				for _, r := range out {
					if r != nilNode {
						s.loads = append(s.loads, access{base: an, field: "*", dst: r})
					}
				}
			}
		}
		return out
	}

	// Unknown external callee: opaque heap results.
	return s.freshResults(call, "result of "+fn.Name(), Heap, nilNode)
}

// callArgExprs is summary.ArgExprs without requiring a resolved
// callee: with fn nil the plain argument list is used.
func callArgExprs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	if fn == nil {
		return call.Args
	}
	var out []ast.Expr
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	return append(out, call.Args...)
}

// callRegion resolves the lifetime region a call's fresh results carry:
// //cfplint:freezes and //cfplint:region directives (in-package or via
// the Points fact), the sync.Pool Get / acquire* / GetsPooled pool
// intrinsics.
func (s *solver) callRegion(fn *types.Func) Region {
	var r Region
	if s.freeze[fn] {
		r |= Frozen
	}
	r |= s.regionOf[fn]
	var pf Points
	if s.pass.ImportObjectFact(fn, &pf) {
		r |= pf.Fresh & (Frozen | Pool | Arena | Ring)
	}
	if analysis.IsPoolMethod(fn, "Get") || strings.HasPrefix(fn.Name(), "acquire") {
		r |= Pool
	} else if eff := s.eff(fn); eff != nil && eff.GetsPooled {
		r |= Pool
	}
	return r
}

// recordRelease notes release events: sync.Pool.Put, arena Reset, and
// release*-named calls, following poolreturn's naming convention so
// the two analyzers agree on what a release is.
func (s *solver) recordRelease(call *ast.CallExpr, fn *types.Func, argNodes []nodeID) {
	add := func(n nodeID) {
		if n != nilNode && s.curFn != nil {
			s.relRecs[s.curFn] = append(s.relRecs[s.curFn], releaseRec{pos: call.Pos(), node: n})
		}
	}
	switch {
	case analysis.IsPoolMethod(fn, "Put"):
		for _, n := range argNodes[1:] {
			add(n)
		}
	case fn.Name() == "Reset" && analysis.HasRecv(fn, arenaPath, "Arena"):
		if len(argNodes) > 0 {
			add(argNodes[0])
		}
	case strings.HasPrefix(fn.Name(), "release"):
		// A release* method recycles its arguments, not its receiver
		// (the receiver is the pool manager).
		rel := argNodes
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && len(rel) > 0 {
			rel = rel[1:]
		}
		for _, n := range rel {
			add(n)
		}
	default:
		if eff := s.eff(fn); eff != nil && eff.PutsParams != 0 {
			for i, n := range argNodes {
				if i < maxSlots && eff.PutsParams&(1<<i) != 0 {
					add(n)
				}
			}
		}
	}
}

// bindDeclArgs copies argument nodes into an in-package callee's
// parameter nodes; variadic overflow stores into the last slot's
// elements.
func (s *solver) bindDeclArgs(fn *types.Func, slots []int, argNodes []nodeID) {
	sig := fn.Type().(*types.Signature)
	nFixed := len(slots)
	variadic := sig.Variadic()
	for i, an := range argNodes {
		if an == nilNode {
			continue
		}
		if i < nFixed {
			// The slot's phantom lives in the param node; the caller's
			// objects join it there.
			s.addCopy(an, s.paramNode(fn, i))
			continue
		}
		if variadic && nFixed > 0 {
			last := s.paramNode(fn, nFixed-1)
			if last != nilNode {
				s.stores = append(s.stores, access{base: last, field: "[]", src: an, pos: token.NoPos, fn: s.curFn})
			}
		}
	}
}

// paramNode returns the node of slot i of a declared function (the
// node was created in seedSignature; slot order matches summary's).
func (s *solver) paramNode(fn *types.Func, slot int) nodeID {
	sig := fn.Type().(*types.Signature)
	i := slot
	if sig.Recv() != nil {
		if i == 0 {
			if n, ok := s.varN[sig.Recv()]; ok {
				return n
			}
			return nilNode
		}
		i--
	}
	if i < sig.Params().Len() {
		if n, ok := s.varN[sig.Params().At(i)]; ok {
			return n
		}
	}
	return nilNode
}

// bindLitArgs binds a directly invoked literal's arguments to its
// parameter variables.
func (s *solver) bindLitArgs(lit *ast.FuncLit, call *ast.CallExpr) {
	var params []*ast.Ident
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			params = append(params, f.Names...)
		}
	}
	for i, a := range call.Args {
		an := s.genExpr(a)
		if i < len(params) {
			if v := s.info.Defs[params[i]]; v != nil {
				s.addCopy(an, s.varNodeFor(v))
			}
		}
	}
}

func (s *solver) callHasTrackedResult(call *ast.CallExpr) bool {
	t := s.typeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if trackable(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return trackable(t)
}

// freshResults creates one node per call result; trackable results
// share one fresh object of the given region (or stay empty when
// region is zero). seed, when valid, is copied into each result.
func (s *solver) freshResults(call *ast.CallExpr, label string, region Region, seed nodeID) []nodeID {
	t := s.typeOf(call)
	var kinds []types.Type
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			kinds = append(kinds, tup.At(i).Type())
		}
	} else {
		kinds = []types.Type{t}
	}
	var objID = -1
	out := make([]nodeID, len(kinds))
	for i, k := range kinds {
		if !trackable(k) {
			out[i] = nilNode
			continue
		}
		n := s.newNode()
		if region != 0 {
			if objID < 0 {
				obj := s.newObject(label, region, call.Pos())
				obj.Fn = s.curFn
				obj.opaque = region&(Frozen|Pool|Arena|Ring) != 0
				obj.Derived = region&Arena != 0
				objID = obj.ID
			}
			s.pts[n].add(objID)
		}
		s.addCopy(seed, n)
		out[i] = n
	}
	if len(out) == 0 {
		out = []nodeID{nilNode}
	}
	return out
}

// fillResults returns the region node as every trackable result of the
// call (multi-result region calls are rare; sharing is conservative).
func (s *solver) fillResults(call *ast.CallExpr, n nodeID) []nodeID {
	t := s.typeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		out := make([]nodeID, tup.Len())
		for i := 0; i < tup.Len(); i++ {
			if trackable(tup.At(i).Type()) {
				out[i] = n
			} else {
				out[i] = nilNode
			}
		}
		return out
	}
	return []nodeID{n}
}

// genBuiltin models the pointer-relevant builtins.
func (s *solver) genBuiltin(name string, call *ast.CallExpr) []nodeID {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return []nodeID{nilNode}
		}
		base := s.genExpr(call.Args[0])
		res := s.newNode()
		s.addCopy(base, res)
		// The append may reallocate: a fresh backing object joins the
		// old one, and every appended element is stored into whichever
		// backing the result points at.
		obj := s.newObject("append backing", Heap, call.Pos())
		obj.Fn = s.curFn
		s.pts[res].add(obj.ID)
		for _, a := range call.Args[1:] {
			an := s.genExpr(a)
			if call.Ellipsis != token.NoPos {
				tmp := s.newNode()
				if an != nilNode {
					s.loads = append(s.loads, access{base: an, field: "[]", dst: tmp})
				}
				an = tmp
			}
			s.stores = append(s.stores, access{base: res, field: "[]", src: an, pos: call.Pos(), fn: s.curFn})
		}
		return []nodeID{res}
	case "copy":
		if len(call.Args) != 2 {
			return []nodeID{nilNode}
		}
		dst := s.genExpr(call.Args[0])
		src := s.genExpr(call.Args[1])
		tmp := s.newNode()
		if src != nilNode {
			s.loads = append(s.loads, access{base: src, field: "[]", dst: tmp})
		}
		if dst != nilNode {
			// The write site matters to frozenro even when the copied
			// elements carry no pointers.
			s.stores = append(s.stores, access{base: dst, field: "[]", src: tmp, pos: call.Pos(), fn: s.curFn})
		}
		return []nodeID{nilNode}
	case "new", "make":
		obj := s.newObject(name, Heap, call.Pos())
		obj.Fn = s.curFn
		n := s.newNode()
		s.pts[n].add(obj.ID)
		for _, a := range call.Args[1:] {
			s.genExpr(a)
		}
		return []nodeID{n}
	case "clear", "delete", "len", "cap", "min", "max", "print", "println", "panic", "recover", "close":
		for _, a := range call.Args {
			s.genExpr(a)
		}
		return []nodeID{nilNode}
	}
	for _, a := range call.Args {
		s.genExpr(a)
	}
	return []nodeID{nilNode}
}
