// Package varintbounds guards decoding of the (Δitem, Δpos, count)
// varint triples (paper §3.4–3.5). encoding.Uvarint signals a
// truncated buffer only through its length result (n == 0, or n < 0
// for overflow) — the value result is then meaningless, and advancing
// a cursor by a non-positive n turns a scan loop into an infinite
// loop. The CFP-array is an on-disk format the process did not
// produce, so everything a varint read returns is untrusted until a
// comparison has vouched for it.
//
// The analyzer has two layers:
//
//   - A lexical layer (the PR 2 rule, kept): every varint length
//     result must appear in some comparison in the same function, and
//     may never be discarded with _.
//
//   - A taint layer (path-sensitive): both results of encoding.Uvarint
//     and the length result of encoding.SkipUvarint are taint sources,
//     recognised by callee object (see readerResults). Taint
//     propagates through assignments, arithmetic, and conversions; a
//     sink is a slice/array/string index, a slice bound, or a make
//     length/capacity. At each sink the tainted value must be
//     sanitized on every path:
//
//     – comparing the value against a constant (the n <= 0 truncation
//     check) sanitizes it on both branch edges;
//     – comparing it against a non-constant bound (v < len(b))
//     sanitizes only the edge on which the comparison constrains it —
//     the true edge for v < e / v <= e / v == e, the false edge for
//     v > e / v >= e / v != e (mirrored when the value is on the
//     right);
//     – an assert call (any function whose name starts with "assert",
//     e.g. the debugchecks layer's assertf) whose arguments compare
//     the value audits it from that point on, branch-insensitively:
//     the assert block may be compiled out in default builds
//     (`if debugChecks { assertf(n1 > 0, ...) }`), but it is an
//     executable, CI-verified annotation of the trust boundary, so it
//     is accepted in place of a live check.
//
// The taint layer is what catches the branch-local bug the lexical
// rule provably cannot: a bounds check on the if arm with the use on
// the else arm contains a comparison of the value, so the lexical rule
// is satisfied, yet the unchecked path flows straight to the sink.
// Index and slice sinks the interval engine proves in range are then
// dropped (certify.go).
package varintbounds

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
	"cfpgrowth/internal/analysis/interval"
	"cfpgrowth/internal/analysis/summary"
)

const encodingPath = "cfpgrowth/internal/encoding"

// sourceResults lists the tainted result indices of the varint readers
// of internal/encoding: the value and length of Uvarint, the length of
// SkipUvarint. The last index is the length result.
var sourceResults = map[string][]int{
	"Uvarint":     {0, 1},
	"SkipUvarint": {0},
}

// readerResults returns the tainted result indices of call when its
// callee is a varint reader of internal/encoding, or nil.
func readerResults(info *types.Info, call *ast.CallExpr) []int {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != encodingPath {
		return nil
	}
	return sourceResults[fn.Name()]
}

// Analyzer is the varintbounds rule.
var Analyzer = &analysis.Analyzer{
	Name: "varintbounds",
	Doc: `requires the length result of encoding.Uvarint /
encoding.SkipUvarint to be compared within the same function, and —
path-sensitively — requires every varint-derived value reaching a
slice index, slice bound, or make size to be dominated by a sanitizing
comparison (constant truncation check, directional bound check, or an
assert audit) on every path; passing a tainted value to a callee whose
summary says it indexes that parameter unchecked (UnboundedIndex) is
the same sink one call further away; index and slice sinks the
interval engine proves in range are certified safe and skipped, so a
numeric proof discharges the taint finding without an ignore directive`,
	Requires:  []*analysis.Analyzer{summary.Analyzer, interval.Facts},
	FactTypes: []analysis.Fact{new(summary.Effects), new(interval.ResultRanges)},
	Run:       run,
}

// A candidate is one taint finding before certification. site is the
// Lbrack of its index or slice expression, or NoPos for sinks the
// interval engine does not certify (make sizes, callee indexes).
type candidate struct {
	pos, site token.Pos
	msg       string
}

func run(pass *analysis.Pass) error {
	lookup := summary.Lookuper(pass)
	look := interval.PassLookuper(pass)
	for _, fd := range pass.FuncDecls() {
		lexicalCheck(pass, fd)
		var found []candidate
		taintCheck(pass, fd.Body, lookup, &found)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
				taintCheck(pass, lit.Body, lookup, &found)
			}
			return true
		})
		// Certify only declarations with a certifiable candidate: the
		// interval solve is the expensive part, and most functions
		// have no taint finding at all.
		var certified map[token.Pos]bool
		for _, c := range found {
			if c.site != token.NoPos && certified == nil {
				certified = certifiedSites(pass, fd, look)
			}
			if !certified[c.site] {
				pass.Reportf(c.pos, "%s", c.msg)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Lexical layer (unchanged from PR 2): every length result must be
// compared somewhere in the function; _-discard always fails.

// lengthResultIndex returns which assignment slot holds the length
// result of a varint-reading call, or -1 if call is not one.
func lengthResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	idxs := readerResults(pass.TypesInfo, call)
	if idxs == nil {
		return -1
	}
	return idxs[len(idxs)-1]
}

func lexicalCheck(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Pass 1: find every varint-read assignment and its length object.
	type read struct {
		call *ast.CallExpr
		obj  types.Object // nil when the length went to _
	}
	var reads []read
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		idx := lengthResultIndex(pass, call)
		if idx < 0 || idx >= len(as.Lhs) {
			return true
		}
		id, ok := as.Lhs[idx].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			reads = append(reads, read{call: call})
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		reads = append(reads, read{call: call, obj: obj})
		return true
	})
	if len(reads) == 0 {
		return
	}
	// Pass 2: which length objects appear in a comparison?
	compared := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if !isRelational(be.Op) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			markIdents(pass, side, compared)
		}
		return true
	})
	for _, r := range reads {
		switch {
		case r.obj == nil:
			pass.Reportf(r.call.Pos(), "varint length result discarded with _: truncated input is indistinguishable from value 0")
		case !compared[r.obj]:
			pass.Reportf(r.call.Pos(), "varint length %s is never checked in this function: a truncated buffer yields length 0 and garbage data", r.obj.Name())
		}
	}
}

// markIdents records every object referenced by identifiers in e.
func markIdents(pass *analysis.Pass, e ast.Expr, set map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				set[obj] = true
			}
		}
		return true
	})
}

func isRelational(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Taint layer.

// tstate is the set of currently tainted objects on this path.
type tstate map[types.Object]bool

type taintProblem struct {
	pass *analysis.Pass
	// audited maps objects to the position of the first assert call
	// vouching for them; audits apply from that position on.
	audited map[types.Object]token.Pos
	// found collects the candidate findings for certification.
	found *[]candidate
}

func (p *taintProblem) Entry() tstate { return tstate{} }

func (p *taintProblem) Clone(s tstate) tstate {
	c := make(tstate, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (p *taintProblem) Join(a, b tstate) tstate {
	j := p.Clone(a)
	for k := range b {
		j[k] = true
	}
	return j
}

func (p *taintProblem) Equal(a, b tstate) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Transfer mutates and returns s (the solver hands it a private copy).
func (p *taintProblem) Transfer(s tstate, n ast.Node) tstate {
	switch n := n.(type) {
	case *ast.AssignStmt:
		p.transferAssign(s, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && p.exprTainted(s, vs.Values[i]) {
						p.set(s, name, true)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		// x++ keeps x's taint.
	}
	return s
}

func (p *taintProblem) transferAssign(s tstate, as *ast.AssignStmt) {
	// Tuple form: one call on the right. Taint the result slots
	// sourceResults names.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			tainted := p.taintedResults(call)
			for i, lhs := range as.Lhs {
				p.set(s, lhs, i < len(tainted) && tainted[i])
			}
			return
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		// Compound assignment (x += e): x stays/becomes tainted if
		// either side is.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if p.exprTainted(s, as.Rhs[0]) {
				p.set(s, as.Lhs[0], true)
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		rhs := as.Rhs[i]
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if tainted := p.taintedResults(call); len(tainted) > 0 {
				p.set(s, lhs, tainted[0])
				continue
			}
		}
		p.set(s, lhs, p.exprTainted(s, rhs))
	}
}

// taintedResults returns, per result slot of call, whether it is a
// taint source; nil when the callee is not a varint reader.
func (p *taintProblem) taintedResults(call *ast.CallExpr) []bool {
	idxs := readerResults(p.pass.TypesInfo, call)
	if idxs == nil {
		return nil
	}
	sig := analysis.Callee(p.pass.TypesInfo, call).Type().(*types.Signature)
	out := make([]bool, sig.Results().Len())
	for _, i := range idxs {
		out[i] = true
	}
	return out
}

// set records lhs as tainted or clean; non-identifier targets (fields,
// index expressions) are not tracked.
func (p *taintProblem) set(s tstate, lhs ast.Expr, tainted bool) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := p.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = p.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if tainted {
		s[obj] = true
	} else {
		delete(s, obj)
	}
}

// exprTainted reports whether e references any tainted object (not
// descending into function literals; calls contribute only through
// their arguments — results of ordinary calls are clean).
func (p *taintProblem) exprTainted(s tstate, e ast.Expr) bool {
	tainted := false
	dataflow.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.pass.TypesInfo.Uses[id]; obj != nil && s[obj] {
				tainted = true
			}
		}
		return true
	})
	return tainted
}

// Refine applies a branch condition to the taint set.
func (p *taintProblem) Refine(s tstate, cond ast.Expr, taken bool) tstate {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || !isRelational(be.Op) {
		return s
	}
	info := p.pass.TypesInfo
	sanitize := func(side, other ast.Expr, sideIsLeft bool) {
		obj := rootObj(info, side)
		if obj == nil || !s[obj] {
			return
		}
		if tv, ok := info.Types[other]; ok && tv.Value != nil {
			// Constant comparison (n <= 0, n == 0): the truncation
			// case was considered; both edges are sanitized.
			delete(s, obj)
			return
		}
		op := be.Op
		if !sideIsLeft {
			switch op {
			case token.LSS:
				op = token.GTR
			case token.LEQ:
				op = token.GEQ
			case token.GTR:
				op = token.LSS
			case token.GEQ:
				op = token.LEQ
			}
		}
		var okEdge bool
		switch op {
		case token.LSS, token.LEQ, token.EQL:
			okEdge = true
		case token.GTR, token.GEQ, token.NEQ:
			okEdge = false
		}
		if taken == okEdge {
			delete(s, obj)
		}
	}
	sanitize(be.X, be.Y, true)
	sanitize(be.Y, be.X, false)
	return s
}

// rootObj resolves e — through parentheses and conversions — to the
// variable object it reads, or nil.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				e = call.Args[0]
				continue
			}
		}
		break
	}
	if id, ok := e.(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// taintCheck solves the taint problem over one function scope and
// collects tainted values reaching sinks into found.
func taintCheck(pass *analysis.Pass, body *ast.BlockStmt, lookup summary.Lookup, found *[]candidate) {
	prob := &taintProblem{pass: pass, audited: collectAudits(pass, body), found: found}
	g := cfg.New(body)
	res := dataflow.Forward[tstate](g, prob)
	res.Iterate(g, prob, func(n ast.Node, before tstate) {
		// Check sinks against the pre-node state; within one
		// statement, sinks in the RHS are evaluated before the
		// assignment re-taints or cleans the LHS.
		checkSinks(pass, prob, n, before, lookup)
	})
}

// collectAudits finds assert-style calls whose arguments compare an
// object: assertf(n1 > 0, ...) audits n1 from that position on.
func collectAudits(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]token.Pos {
	audited := make(map[types.Object]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || len(fn.Name()) < 6 || fn.Name()[:6] != "assert" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				be, ok := m.(*ast.BinaryExpr)
				if !ok || !isRelational(be.Op) {
					return true
				}
				for _, side := range []ast.Expr{be.X, be.Y} {
					if obj := rootObj(pass.TypesInfo, side); obj != nil {
						if old, seen := audited[obj]; !seen || call.Pos() < old {
							audited[obj] = call.Pos()
						}
					}
				}
				return true
			})
		}
		return true
	})
	return audited
}

// checkSinks walks one CFG node reporting tainted values used as
// slice/array/string indices, slice bounds, or make sizes.
func checkSinks(pass *analysis.Pass, prob *taintProblem, n ast.Node, s tstate, lookup summary.Lookup) {
	info := pass.TypesInfo
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IndexExpr:
			if indexableSink(info, m.X) {
				reportTaintedExpr(pass, prob, s, m.Index, m.Lbrack, "an index")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{m.Low, m.High, m.Max} {
				if bound != nil {
					reportTaintedExpr(pass, prob, s, bound, m.Lbrack, "a slice bound")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
					for _, arg := range m.Args[1:] {
						reportTaintedExpr(pass, prob, s, arg, token.NoPos, "a make size")
					}
					return true
				}
			}
			// A callee whose summary says it indexes a parameter without
			// its own check (UnboundedIndex) is the same sink one call
			// further away: handing it a tainted value faults inside the
			// callee.
			fn := analysis.Callee(info, m)
			if fn == nil {
				return true
			}
			eff := lookup(fn)
			if eff == nil || eff.UnboundedIndex == 0 {
				return true
			}
			for i, arg := range summary.ArgExprs(m, fn) {
				if arg == nil || eff.UnboundedIndex&(1<<i) == 0 {
					continue
				}
				reportTaintedExpr(pass, prob, s, arg, token.NoPos, "an unchecked index inside "+fn.Name())
			}
		}
		return true
	})
}

// indexableSink reports whether indexing x with an untrusted value can
// fault: slices, arrays, and strings (map lookups cannot).
func indexableSink(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t := t.(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return t.Info()&types.IsString != 0
	}
	return false
}

// reportTaintedExpr records the first tainted, un-audited object
// referenced by e as a candidate (at most one per sink expression);
// site is the sink's certifiable Lbrack, or NoPos.
func reportTaintedExpr(pass *analysis.Pass, prob *taintProblem, s tstate, e ast.Expr, site token.Pos, what string) {
	done := false
	dataflow.Inspect(e, func(n ast.Node) bool {
		if done {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !s[obj] {
			return true
		}
		if auditPos, ok := prob.audited[obj]; ok && auditPos < e.Pos() {
			return true
		}
		done = true
		*prob.found = append(*prob.found, candidate{pos: e.Pos(), site: site,
			msg: fmt.Sprintf("varint-derived value %s is used as %s without a dominating bounds check on this path", obj.Name(), what)})
		return false
	})
}
