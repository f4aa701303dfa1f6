// Package summary computes an interprocedural effect summary per
// declared function and publishes it as a fact, so downstream
// analyzers compose across function and package boundaries instead of
// pattern-matching inside a single body.
//
// The computation is bottom-up over the package call graph
// (internal/analysis/callgraph): strongly connected components in
// callees-first order, iterating each cycle to a fixpoint (all effect
// domains are finite and monotone). Calls into already-analyzed
// packages resolve through the fact store — the driver analyzes
// packages in dependency order, so a callee's summary is present
// before any caller is reached. Unresolved dynamic calls (function
// values, interface dispatch) are ⊤: the summary records their
// presence in Dynamic and otherwise assumes them effect-free, a
// documented unsoundness that keeps the mining code's two interface
// shapes (sinks, trackers) from drowning every caller in noise — both
// shapes are matched structurally instead.
//
// Effect domains, chosen for the analyzers that consume them:
//
//   - ledger effects (ledgerbalance): does the function hand its
//     caller a net modeled-byte charge (ChargesNet: acquire helpers,
//     tracker wrappers), balance a caller-held charge (Releases), or
//     perform a charge no obs span of its own covers (Charges — the
//     obligation a span-using caller must wrap, the PR-6 bug class)?
//   - pool effects (poolreturn, pointsto): does it hand out a pooled
//     value (GetsPooled) or return parameter slots to a pool
//     (PutsParams)?
//   - index effects (varintbounds): which integer slots does it use as
//     an index or size without a bound check (UnboundedIndex)?
//   - sink effects (sinkguard, lockorder): may it emit a result
//     (EmitsSink), directly or through a helper?
//
// Which parameters a function may write through is pointsto's
// question (its Escapes.Writes mask), not summary's: only an
// alias-aware answer sees `b := d.buf; b[0] = 1`.
//
// Parameter slots: slot 0 is the receiver for methods, with parameters
// shifted by one; plain functions use parameter order directly.
// ArgExprs maps a call site's expressions to slots the same way.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/callgraph"
)

// Effects is the per-function summary fact.
type Effects struct {
	// ChargesNet: every return path (or the returned-resource paths)
	// leaves a positive ledger charge for the caller to balance.
	ChargesNet bool
	// Releases: performs a ledger free that matches no charge of its
	// own — it balances a token held by the caller.
	Releases bool
	// Charges: performs a positive charge not covered by an obs span
	// the function itself opened; span-using callers must cover the
	// call site.
	Charges bool
	// GetsPooled: returns a value obtained from a sync.Pool.
	GetsPooled bool
	// PutsParams: bit i set when parameter slot i is handed to a
	// sync.Pool.Put (directly or via a callee).
	PutsParams uint32
	// UnboundedIndex: bit i set when integer parameter slot i is used
	// as an index, slice bound, or make size with no comparison
	// guarding it in the function.
	UnboundedIndex uint32
	// EmitsSink: may call a result-sink Emit, directly or via a callee.
	EmitsSink bool
	// Dynamic: contains unresolved dynamic call sites (⊤); consumers
	// needing soundness treat the function as unknown.
	Dynamic bool
}

// AFact marks Effects as a fact type.
func (*Effects) AFact() {}

// String renders the set effects compactly ("chargesNet charges
// puts(0x1)"), or "none"; used by tests and -debug output.
func (e *Effects) String() string {
	var parts []string
	if e.ChargesNet {
		parts = append(parts, "chargesNet")
	}
	if e.Releases {
		parts = append(parts, "releases")
	}
	if e.Charges {
		parts = append(parts, "charges")
	}
	if e.GetsPooled {
		parts = append(parts, "getsPooled")
	}
	if e.PutsParams != 0 {
		parts = append(parts, fmt.Sprintf("puts(%#x)", e.PutsParams))
	}
	if e.UnboundedIndex != 0 {
		parts = append(parts, fmt.Sprintf("unbounded(%#x)", e.UnboundedIndex))
	}
	if e.EmitsSink {
		parts = append(parts, "emitsSink")
	}
	if e.Dynamic {
		parts = append(parts, "dynamic")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Analyzer computes and exports Effects for every declared function of
// the package. It reports nothing; it exists to be required.
var Analyzer = &analysis.Analyzer{
	Name: "summary",
	Doc: `computes per-function effect summaries (ledger delta, pool
balance, unchecked index slots, sink emissions) bottom-up over the
package call graph and publishes them as facts for ledgerbalance,
poolreturn, pointsto, sinkguard, lockorder and varintbounds`,
	FactTypes: []analysis.Fact{new(Effects)},
	Run:       run,
}

// maxSlots caps the parameter bitmasks.
const maxSlots = 32

func run(pass *analysis.Pass) error {
	g := callgraph.New(pass.Files, pass.TypesInfo)
	local := make(map[*types.Func]*Effects)
	lookup := func(fn *types.Func) *Effects {
		if e, ok := local[fn]; ok {
			return e
		}
		var e Effects
		if pass.ImportObjectFact(fn, &e) {
			return &e
		}
		return nil
	}
	for _, comp := range g.SCCs() {
		for _, n := range comp {
			local[n.Fn] = &Effects{}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				ne := compute(pass, n, lookup)
				if *local[n.Fn] != *ne {
					local[n.Fn] = ne
					changed = true
				}
			}
		}
	}
	for fn, eff := range local {
		pass.ExportObjectFact(fn, eff)
	}
	return nil
}

// Lookuper returns a Lookup over the facts visible to pass; consumers
// that Require Analyzer use it to resolve callee summaries (same
// package and imported packages alike).
func Lookuper(pass *analysis.Pass) Lookup {
	return func(fn *types.Func) *Effects {
		if fn == nil {
			return nil
		}
		var e Effects
		if pass.ImportObjectFact(fn, &e) {
			return &e
		}
		return nil
	}
}

// compute derives the effects of one declaration given the current
// summaries of everything it calls.
func compute(pass *analysis.Pass, n *callgraph.Node, lookup Lookup) *Effects {
	info := pass.TypesInfo
	eff := &Effects{}

	// Interface dispatch whose shape the framework recognizes (ledger
	// ops, sink emissions) is modeled, not ⊤; only truly unknown call
	// sites make the function Dynamic.
	modeled := map[token.Pos]bool{}
	for _, c := range n.Calls {
		if !c.Interface {
			continue
		}
		if op, _ := ledgerOp(info, c.Site); op != opNone || analysis.IsSinkEmit(c.Callee) {
			modeled[c.Site.Pos()] = true
		}
	}
	for _, pos := range n.Dynamic {
		if !modeled[pos] {
			eff.Dynamic = true
		}
	}

	var sig *types.Signature
	if fn, ok := info.Defs[n.Decl.Name].(*types.Func); ok {
		sig = fn.Type().(*types.Signature)
	}
	li := AnalyzeLedger(info, sig, n.Decl.Body, lookup)
	eff.Charges = li.Charges
	eff.Releases = li.Releases
	for _, l := range li.Leaks {
		if l.AllPaths || l.Returned {
			eff.ChargesNet = true
		}
	}

	slots := paramSlots(info, n.Decl)

	// Unbounded index uses.
	bounded := comparedObjs(info, n.Decl.Body)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IndexExpr:
			if slot, ok := paramSlot(info, slots, m.Index); ok && !bounded[analysis.IdentObj(info, m.Index)] {
				eff.UnboundedIndex |= 1 << slot
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{m.Low, m.High, m.Max} {
				if b == nil {
					continue
				}
				if slot, ok := paramSlot(info, slots, b); ok && !bounded[analysis.IdentObj(info, b)] {
					eff.UnboundedIndex |= 1 << slot
				}
			}
		}
		return true
	})

	// Call-mediated effects.
	for _, c := range n.Calls {
		fn := c.Callee
		if analysis.IsSinkEmit(fn) {
			eff.EmitsSink = true
		}
		if c.Interface {
			continue
		}
		args := ArgExprs(c.Site, fn)
		if analysis.IsPoolMethod(fn, "Put") && len(c.Site.Args) == 1 {
			if slot, ok := paramSlot(info, slots, c.Site.Args[0]); ok {
				eff.PutsParams |= 1 << slot
			}
		}
		ce := lookup(fn)
		if ce == nil {
			continue
		}
		if ce.EmitsSink {
			eff.EmitsSink = true
		}
		for i, a := range args {
			if a == nil || i >= maxSlots {
				continue
			}
			slot, ok := paramSlot(info, slots, a)
			if !ok {
				continue
			}
			if ce.PutsParams&(1<<i) != 0 {
				eff.PutsParams |= 1 << slot
			}
			if ce.UnboundedIndex&(1<<i) != 0 && !bounded[analysis.IdentObj(info, a)] {
				eff.UnboundedIndex |= 1 << slot
			}
		}
	}

	eff.GetsPooled = returnsPooled(info, n, lookup)
	return eff
}

// paramSlots maps the declaration's receiver and parameter objects to
// slot indexes.
func paramSlots(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	slots := map[types.Object]int{}
	next := 0
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				next++
				continue
			}
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && next < maxSlots {
					slots[obj] = next
				}
				next++
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return slots
}

// ArgExprs returns the call's expressions by parameter slot for callee
// fn: the receiver expression first for methods, then the arguments.
// Entries may be nil (method values); variadic overflow arguments all
// map to the final slot's position or beyond and are simply appended.
func ArgExprs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
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

// paramSlot resolves e, a bare parameter identifier (possibly
// parenthesized), to its slot.
func paramSlot(info *types.Info, slots map[types.Object]int, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	slot, ok := slots[info.Uses[id]]
	return slot, ok
}

// comparedObjs collects every variable appearing in a comparison —
// the (deliberately coarse) "a bound check exists" signal for
// UnboundedIndex.
func comparedObjs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !be.Op.IsOperator() {
			return true
		}
		switch be.Op.String() {
		case "<", "<=", ">", ">=", "==", "!=":
			for _, side := range []ast.Expr{be.X, be.Y} {
				if obj := analysis.IdentObj(info, side); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// returnsPooled reports whether some return path hands out a value
// obtained from a sync.Pool (directly, through a type assertion, or
// via a GetsPooled callee).
func returnsPooled(info *types.Info, n *callgraph.Node, lookup Lookup) bool {
	pooled := map[types.Object]bool{}
	isGet := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
				call, ok = ast.Unparen(ta.X).(*ast.CallExpr)
				if !ok {
					return false
				}
			} else {
				return false
			}
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return false
		}
		if analysis.IsPoolMethod(fn, "Get") {
			return true
		}
		ce := lookup(fn)
		return ce != nil && ce.GetsPooled
	}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if isGet(rhs) {
					if obj := analysis.IdentObj(info, as.Lhs[i]); obj != nil {
						pooled[obj] = true
					}
				}
			}
		}
		return true
	})
	found := false
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return !found
		}
		for _, r := range ret.Results {
			if isGet(r) {
				found = true
			}
			if obj := analysis.IdentObj(info, r); obj != nil && pooled[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
