// Package poolreturn guards the recycle discipline of pooled scratch
// buffers — the per-grower Decode free list of internal/core/decode.go
// and any sync.Pool — on every path, error and cancel exits included.
// A pooled value that misses its release on one path is not a crash:
// it silently degrades the pool's hit rate and, for the Decode free
// list, leaks the modeled bytes of a whole flat decoding until the
// grower dies, which is exactly the drift the paper's memory budget
// cannot absorb on deep recursions.
//
// The analysis is a forward may-dataflow per function scope. A token
// opens when a value is obtained from a pool:
//
//   - v := pool.Get() (or through a type assertion),
//   - v := m.acquireFoo(...) — the repo's acquire/release naming pair,
//   - v := helper(...) where helper's summary says GetsPooled.
//
// A token closes when the value goes back:
//
//   - pool.Put(v), m.releaseFoo(v), or a call whose summary
//     (PutsParams) returns that parameter slot to a pool,
//   - deferred forms of the same, applied per return path.
//
// Ownership transfers close a token without a release: returning the
// value, storing it into a field, element, map or channel, capturing
// it in a function literal, or passing it to a callee whose pointsto
// Escapes fact says it retains the argument (the literal, structure,
// or callee now owns the release). Captures and callee retention come
// from the points-to layer — LitCaptures resolves semantic captures
// (a variable redeclared inside the literal is not a capture, so the
// obligation stays put), and Escapes facts name the retaining slots —
// rather than from lexical identifier scans. Whatever is still open
// when a return path is reached is reported at its acquisition site.
package poolreturn

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
	"cfpgrowth/internal/analysis/pointsto"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer is the poolreturn rule, scoped by the driver to the mining
// packages that recycle decode scratch (internal/core, internal/pfp,
// internal/fptree, internal/algo).
var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc: `requires every pooled value (sync.Pool Get, acquire*/release*
pairs like the per-grower Decode free list, and helpers whose summary
hands out pooled values) to be returned to its pool on every return
path, error and cancel exits included, unless ownership is
transferred by returning or storing the value`,
	Requires:  []*analysis.Analyzer{summary.Analyzer, pointsto.Analyzer},
	FactTypes: []analysis.Fact{new(summary.Effects), new(pointsto.Points), new(pointsto.Escapes)},
	Run:       run,
}

// tokenKey identifies one open pooled value: the variable holding it
// and the acquisition site.
type tokenKey struct {
	obj types.Object
	pos token.Pos
}

type state struct {
	// open holds the pooled values not yet returned on this path
	// (may-set).
	open map[tokenKey]bool
	// held holds the same tokens on every path (must-set), for message
	// precision.
	held map[tokenKey]bool
	// defObjs holds variables released by a deferred call registered on
	// this path.
	defObjs map[types.Object]bool
}

type problem struct {
	pass   *analysis.Pass
	lookup summary.Lookup
	// pts is the package's points-to result: semantic literal captures
	// and callee Escapes facts both come from it.
	pts *pointsto.Result
}

func (p problem) Entry() state {
	return state{open: map[tokenKey]bool{}, held: map[tokenKey]bool{}, defObjs: map[types.Object]bool{}}
}

func (p problem) Clone(s state) state {
	c := state{
		open:    make(map[tokenKey]bool, len(s.open)),
		held:    make(map[tokenKey]bool, len(s.held)),
		defObjs: make(map[types.Object]bool, len(s.defObjs)),
	}
	for k := range s.open {
		c.open[k] = true
	}
	for k := range s.held {
		c.held[k] = true
	}
	for k := range s.defObjs {
		c.defObjs[k] = true
	}
	return c
}

func (p problem) Join(a, b state) state {
	j := p.Clone(a)
	for k := range b.open {
		j.open[k] = true
	}
	for k := range j.held {
		if !b.held[k] {
			delete(j.held, k)
		}
	}
	for k := range j.defObjs {
		if !b.defObjs[k] {
			delete(j.defObjs, k)
		}
	}
	return j
}

func (p problem) Equal(a, b state) bool {
	if len(a.open) != len(b.open) || len(a.held) != len(b.held) || len(a.defObjs) != len(b.defObjs) {
		return false
	}
	for k := range a.open {
		if !b.open[k] {
			return false
		}
	}
	for k := range a.held {
		if !b.held[k] {
			return false
		}
	}
	for k := range a.defObjs {
		if !b.defObjs[k] {
			return false
		}
	}
	return true
}

func (p problem) Refine(s state, cond ast.Expr, taken bool) state { return s }

func (p problem) Transfer(s state, n ast.Node) state {
	info := p.pass.TypesInfo
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			p.scan(s, rhs)
		}
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			obj := analysis.IdentObj(info, lhs)
			if obj == nil {
				// A store into a field/element transfers ownership of any
				// token named on the RHS.
				p.dropNamed(s, n.Rhs[i])
				continue
			}
			if acq := p.acquireCall(n.Rhs[i]); acq != nil {
				s.open[tokenKey{obj, acq.Pos()}] = true
				s.held[tokenKey{obj, acq.Pos()}] = true
			} else {
				// Rebinding (including aliasing v2 := d): the variable no
				// longer holds the tracked value; an alias now owns it.
				drop(s, obj)
				p.dropNamed(s, n.Rhs[i])
			}
		}
	case *ast.DeferStmt:
		p.deferCall(s, n.Call)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			p.scan(s, r)
		}
		applyDefers(s)
		for _, r := range n.Results {
			p.dropNamed(s, r)
		}
	case *ast.SendStmt:
		p.scan(s, n.Chan)
		p.dropNamed(s, n.Value)
	default:
		p.scan(s, n)
	}
	return s
}

// scan applies release calls and literal-capture ownership transfers
// inside one expression tree.
func (p problem) scan(s state, n ast.Node) {
	info := p.pass.TypesInfo
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if p.releaseCall(s, m) {
				return false
			}
			// Ordinary calls are NOT transfers: readers borrow pooled
			// values constantly. The exceptions are append (the slice now
			// stores the value) and callees whose Escapes fact says the
			// argument is retained past the call (the callee owns it).
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					for _, a := range m.Args[1:] {
						p.dropNamed(s, a)
					}
					return false
				}
			}
			if fn := analysis.Callee(info, m); fn != nil {
				if mask := p.calleeLasting(fn); mask != 0 {
					for i, a := range summary.ArgExprs(m, fn) {
						if a != nil && i < 32 && mask&(1<<i) != 0 {
							p.dropNamed(s, a)
						}
					}
				}
			}
		case *ast.CompositeLit:
			// Storing the value into a literal transfers ownership to the
			// structure.
			for _, el := range m.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					p.dropNamed(s, kv.Value)
				} else {
					p.dropNamed(s, el)
				}
			}
		case *ast.FuncLit:
			// The literal captures the variable: it (or whoever runs it)
			// owns the release now. LitCaptures is semantic — a variable
			// redeclared inside the literal shadows the token holder and
			// transfers nothing.
			if p.pts != nil {
				for _, obj := range p.pts.LitCaptures(m) {
					drop(s, obj)
				}
			}
		}
		return true
	})
}

// acquireCall returns the pool-acquisition call of e, unwrapping a
// type assertion, or nil.
func (p problem) acquireCall(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := analysis.Callee(p.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if analysis.IsPoolMethod(fn, "Get") || strings.HasPrefix(strings.ToLower(fn.Name()), "acquire") {
		return call
	}
	if eff := p.lookup(fn); eff != nil && eff.GetsPooled {
		return call
	}
	return nil
}

// releaseCall pops the tokens a call returns to a pool; it reports
// whether the call was release-shaped.
func (p problem) releaseCall(s state, call *ast.CallExpr) bool {
	info := p.pass.TypesInfo
	fn := analysis.Callee(info, call)
	if fn == nil {
		return false
	}
	if analysis.IsPoolMethod(fn, "Put") || strings.HasPrefix(strings.ToLower(fn.Name()), "release") {
		for _, a := range call.Args {
			if obj := analysis.IdentObj(info, a); obj != nil {
				drop(s, obj)
			}
		}
		return true
	}
	if eff := p.lookup(fn); eff != nil && eff.PutsParams != 0 {
		for i, a := range summary.ArgExprs(call, fn) {
			if a == nil || eff.PutsParams&(1<<i) == 0 {
				continue
			}
			if obj := analysis.IdentObj(info, a); obj != nil {
				drop(s, obj)
			}
		}
		return true
	}
	return false
}

// calleeLasting returns the parameter slots the callee retains for
// certain past the call (its pointsto Escapes fact's Lasting mask):
// passing a token into such a slot transfers ownership.
func (p problem) calleeLasting(fn *types.Func) uint32 {
	var e pointsto.Escapes
	if p.pass.ImportObjectFact(fn, &e) {
		return e.Lasting
	}
	return 0
}

// deferCall registers deferred releases; deferred closures are scanned
// for the same shapes.
func (p problem) deferCall(s state, call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				p.deferCall(s, c)
			}
			return true
		})
		return
	}
	info := p.pass.TypesInfo
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	release := analysis.IsPoolMethod(fn, "Put") || strings.HasPrefix(strings.ToLower(fn.Name()), "release")
	var eff *summary.Effects
	if !release {
		eff = p.lookup(fn)
		if eff == nil || eff.PutsParams == 0 {
			return
		}
	}
	if release {
		for _, a := range call.Args {
			if obj := analysis.IdentObj(info, a); obj != nil {
				s.defObjs[obj] = true
			}
		}
		return
	}
	for i, a := range summary.ArgExprs(call, fn) {
		if a == nil || eff.PutsParams&(1<<i) == 0 {
			continue
		}
		if obj := analysis.IdentObj(info, a); obj != nil {
			s.defObjs[obj] = true
		}
	}
}

// dropNamed closes the tokens of every variable named as a bare
// identifier in e (ownership transfer).
func (p problem) dropNamed(s state, e ast.Expr) {
	if obj := analysis.IdentObj(p.pass.TypesInfo, e); obj != nil {
		drop(s, obj)
	}
}

func drop(s state, obj types.Object) {
	for k := range s.open {
		if k.obj == obj {
			delete(s.open, k)
			delete(s.held, k)
		}
	}
}

func applyDefers(s state) {
	for k := range s.open {
		if s.defObjs[k.obj] {
			delete(s.open, k)
			delete(s.held, k)
		}
	}
}

func run(pass *analysis.Pass) error {
	lookup := summary.Lookuper(pass)
	pts := pointsto.ResultOf(pass)
	for _, fd := range pass.FuncDecls() {
		for _, body := range scopes(fd.Body) {
			check(pass, body, lookup, pts)
		}
	}
	return nil
}

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

func check(pass *analysis.Pass, body *ast.BlockStmt, lookup summary.Lookup, pts *pointsto.Result) {
	prob := problem{pass: pass, lookup: lookup, pts: pts}
	g := cfg.New(body)
	res := dataflow.Forward[state](g, prob)
	if !res.ExitReached {
		return
	}
	exit := prob.Clone(res.Exit)
	applyDefers(exit)
	reported := map[token.Pos]bool{}
	for k := range exit.open {
		if reported[k.pos] {
			continue
		}
		reported[k.pos] = true
		if exit.held[k] {
			pass.Reportf(k.pos, "pooled value %s obtained here is never returned to its pool in this function; release it or transfer ownership", k.obj.Name())
		} else {
			pass.Reportf(k.pos, "pooled value %s obtained here is not returned to its pool on every return path (an early return or error exit skips the release); release it on each path or defer the release", k.obj.Name())
		}
	}
}
