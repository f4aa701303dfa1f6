// Package loopprogress proves that the miner's traversal loops
// terminate on hostile input. PR 2's seeded bug is the motivating
// class: a CRC-valid CFP-array whose truncated varint made
// encoding.Uvarint return length 0, so ScanItem's cursor stopped
// advancing and the scan spun forever. Path- and effect-level
// analyzers cannot see that class — it is a value property — so this
// one asks the SSA/interval layer for a progress proof on every
// in-scope loop.
//
// In scope are non-range for loops inside //cfplint:hot functions and
// any loop that directly calls the varint decoders
// (encoding.Uvarint / encoding.SkipUvarint), the trust boundary where
// decoded lengths steer control. Each such loop must exhibit one of:
//
//  1. an advancing cursor: a loop condition atom `i < e` (or the ≤/≥/>
//     mirrors) with a loop-invariant bound e, where every path back to
//     the loop head moves i by a step the interval engine proves ≥ 1
//     in the bound's direction;
//  2. a guarded-subtract chase: a condition atom `x - d >= c` (or
//     `x >= d`, conversions ignored) paired with a body step `x -= d`
//     whose subtrahend is proven ≥ 1 — the ancestor-chase shape of
//     PathTo/SupportOf, where ParentFields' published result range
//     supplies the d ≥ 1 proof;
//  3. a binary-search halving step: `lo = m+1` / `hi = m-1` (or
//     `hi = m`) around a midpoint `m` computed from lo and hi by a
//     shift or division by two, under a `lo < hi`-shaped condition;
//  4. for a condition-free `for { ... }`, a direct exit: an unlabeled
//     break at loop depth, a labeled break naming the loop, a return,
//     a goto, or a panic. This is existence of an exit edge, not a
//     proof the edge is taken — the interleaved lane chases in
//     growth.go terminate because ranks strictly decrease through
//     ParentFields, a relational argument outside the interval
//     domain; the exit-edge check is the documented residue.
//
// Range loops always terminate and are skipped. A loop proving none
// of the patterns is reported.
package loopprogress

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/interval"
	"cfpgrowth/internal/analysis/ssa"
)

const encodingPath = "cfpgrowth/internal/encoding"

// Analyzer is the loopprogress pass.
var Analyzer = &analysis.Analyzer{
	Name:      "loopprogress",
	Doc:       "loops traversing untrusted decoded structures must have a proven progress variant",
	Requires:  []*analysis.Analyzer{interval.Facts},
	FactTypes: []analysis.Fact{new(interval.ResultRanges)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	look := interval.PassLookuper(pass)
	for _, fd := range pass.FuncDecls() {
		hot := analysis.IsHot(fd)
		var loops []*ast.ForStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if l, ok := n.(*ast.ForStmt); ok && (hot || callsDecoder(pass.TypesInfo, l)) {
				loops = append(loops, l)
			}
			return true
		})
		if len(loops) == 0 {
			continue
		}
		g := cfg.New(fd.Body)
		fn := ssa.Build(fd, g, pass.TypesInfo)
		res := interval.Analyze(fn, pass.TypesInfo, look)
		for _, l := range loops {
			checkLoop(pass, fn, res, l)
		}
	}
	return nil
}

// callsDecoder reports whether the loop body directly (not through a
// nested function literal) calls one of the varint decoders.
func callsDecoder(info *types.Info, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == encodingPath {
			switch fn.Name() {
			case "Uvarint", "SkipUvarint":
				found = true
			}
		}
		return !found
	})
	return found
}

func checkLoop(pass *analysis.Pass, fn *ssa.Func, res *interval.Result, loop *ast.ForStmt) {
	if loop.Cond == nil {
		if !hasDirectExit(loop) {
			pass.Reportf(loop.Pos(), "unconditional hot-path loop has no exit edge (no break, return, goto, or panic at loop depth)")
		}
		return
	}
	for _, atom := range conjuncts(loop.Cond) {
		if advancingCursor(pass.TypesInfo, fn, res, loop, atom) ||
			guardedSubtract(pass.TypesInfo, res, loop, atom) ||
			halvingStep(pass.TypesInfo, fn, res, loop, atom) {
			return
		}
	}
	pass.Reportf(loop.Pos(), "loop over untrusted data has no proven progress variant: no strictly advancing cursor, guarded-subtract chase, or halving step")
}

// conjuncts splits a && chain; each conjunct independently bounds the
// loop (falsifying any one exits).
func conjuncts(e ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		return append(conjuncts(be.X), conjuncts(be.Y)...)
	}
	return []ast.Expr{e}
}

// ---- pattern 1: advancing cursor ------------------------------------

func advancingCursor(info *types.Info, fn *ssa.Func, res *interval.Result, loop *ast.ForStmt, atom ast.Expr) bool {
	be, ok := ast.Unparen(atom).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	type side struct {
		id  *ast.Ident
		dir int64 // +1 cursor below bound, -1 cursor above bound
	}
	var cand []side
	lid, lok := ast.Unparen(be.X).(*ast.Ident)
	rid, rok := ast.Unparen(be.Y).(*ast.Ident)
	switch be.Op {
	case token.LSS, token.LEQ:
		if lok {
			cand = append(cand, side{lid, +1})
		}
		if rok {
			cand = append(cand, side{rid, -1})
		}
	case token.GTR, token.GEQ:
		if lok {
			cand = append(cand, side{lid, -1})
		}
		if rok {
			cand = append(cand, side{rid, +1})
		}
	default:
		return false
	}
	changed := assignedVars(info, loop)
	for _, c := range cand {
		bound := be.Y
		if c.id == rid {
			bound = be.X
		}
		if !invariant(info, bound, changed) {
			continue
		}
		v, ok := fn.UseOf[c.id]
		if !ok {
			continue
		}
		if cursorAdvances(fn, res, v, c.dir) {
			return true
		}
	}
	// Converging pair: neither side is loop-invariant, but both are
	// cursors advancing toward each other (i++ racing j-- under i < j,
	// the canonical in-place reversal). The gap shrinks by ≥ 2 every
	// iteration, so the loop terminates even though each bound moves.
	if len(cand) == 2 {
		lv, lok := fn.UseOf[cand[0].id]
		rv, rok := fn.UseOf[cand[1].id]
		if lok && rok &&
			cursorAdvances(fn, res, lv, cand[0].dir) &&
			cursorAdvances(fn, res, rv, cand[1].dir) {
			return true
		}
	}
	return false
}

// assignedVars collects every variable assigned inside the loop's
// body or post statement.
func assignedVars(info *types.Info, loop *ast.ForStmt) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := objVar(info, id); ok {
				set[v] = true
			}
		}
	}
	walk := func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lh := range n.Lhs {
					mark(lh)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.RangeStmt:
				mark(n.Key)
				mark(n.Value)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X) // address taken: anything may write it
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					mark(name)
				}
			}
			return true
		})
	}
	walk(loop.Body)
	walk(loop.Post)
	return set
}

func objVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

// invariant reports whether the bound expression cannot change across
// iterations: variables unassigned in the loop combined by pure
// arithmetic, len/cap, selectors of unassigned bases, and constants.
func invariant(info *types.Info, e ast.Expr, changed map[*types.Var]bool) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, isVar := objVar(info, n); isVar && changed[v] {
				ok = false
			}
		case *ast.CallExpr:
			id, isID := ast.Unparen(n.Fun).(*ast.Ident)
			if !isID {
				ok = false
				return false
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return true // len/cap/min/max of invariant operands
			}
			if tv, isTv := info.Types[n.Fun]; isTv && tv.IsType() {
				return true // conversion
			}
			ok = false
			return false
		case *ast.IndexExpr, *ast.StarExpr:
			// Element and pointer loads can change without their base
			// being reassigned.
			ok = false
			return false
		}
		return ok
	})
	return ok
}

// cursorAdvances proves every loop path moves the cursor's head phi
// by ≥ 1 in direction dir. Exactly one phi input may not derive from
// the phi (the entry edge); every other input is a back edge and must
// advance — a back edge resetting the cursor from elsewhere proves
// nothing.
func cursorAdvances(fn *ssa.Func, res *interval.Result, v *ssa.Value, dir int64) bool {
	phi := peel(v)
	if phi == nil || phi.Kind != ssa.Phi {
		return false
	}
	entries, backs := 0, 0
	for _, a := range phi.Args {
		if a == nil {
			continue
		}
		if !derivesFrom(fn, a, phi, map[*ssa.Value]bool{}) {
			entries++
			continue
		}
		if !advances(fn, res, a, phi, dir, map[*ssa.Value]bool{}) {
			return false
		}
		backs++
	}
	return backs >= 1 && entries <= 1
}

// peel strips refinement wrappers off a value.
func peel(v *ssa.Value) *ssa.Value {
	for v != nil && v.Kind == ssa.Refine {
		v = v.X
	}
	return v
}

// derivesFrom reports whether chasing a's inputs reaches target.
func derivesFrom(fn *ssa.Func, a, target *ssa.Value, visited map[*ssa.Value]bool) bool {
	if a == nil || visited[a] {
		return false
	}
	if a == target {
		return true
	}
	visited[a] = true
	if derivesFrom(fn, a.X, target, visited) {
		return true
	}
	for _, arg := range a.Args {
		if derivesFrom(fn, arg, target, visited) {
			return true
		}
	}
	if a.Expr != nil {
		found := false
		ast.Inspect(a.Expr, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !found {
				if u, ok := fn.UseOf[id]; ok && derivesFrom(fn, u, target, visited) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// advances proves value a equals the phi moved ≥ 1 in direction dir,
// possibly through chains of refinements, further steps, or merges.
func advances(fn *ssa.Func, res *interval.Result, a, phi *ssa.Value, dir int64, visited map[*ssa.Value]bool) bool {
	if a == nil || a == phi || visited[a] {
		return false
	}
	visited[a] = true
	switch a.Kind {
	case ssa.Refine:
		return advances(fn, res, a.X, phi, dir, visited)
	case ssa.Phi:
		// A merge of body paths: every reachable input must advance.
		any := false
		for _, arg := range a.Args {
			if arg == nil {
				continue
			}
			if !advances(fn, res, arg, phi, dir, visited) {
				return false
			}
			any = true
		}
		return any
	case ssa.Def:
		return defAdvances(fn, res, a, phi, dir, visited)
	}
	return false
}

// chainsToPhi accepts the phi itself or anything already advanced
// from it (two increments still advance).
func chainsToPhi(fn *ssa.Func, res *interval.Result, x, phi *ssa.Value, dir int64, visited map[*ssa.Value]bool) bool {
	x = peel(x)
	if x == phi {
		return true
	}
	return advances(fn, res, x, phi, dir, visited)
}

func defAdvances(fn *ssa.Func, res *interval.Result, a, phi *ssa.Value, dir int64, visited map[*ssa.Value]bool) bool {
	stepUp := func(step interval.Interval) bool {
		if dir > 0 {
			return step.Lo >= 1
		}
		return step.Lo >= 1 // magnitude of the step in dir's direction
	}
	switch a.Op {
	case token.INC:
		return dir > 0 && chainsToPhi(fn, res, a.X, phi, dir, visited)
	case token.DEC:
		return dir < 0 && chainsToPhi(fn, res, a.X, phi, dir, visited)
	case token.ADD_ASSIGN:
		return dir > 0 && stepUp(res.Eval(a.Expr)) && chainsToPhi(fn, res, a.X, phi, dir, visited)
	case token.SUB_ASSIGN:
		return dir < 0 && stepUp(res.Eval(a.Expr)) && chainsToPhi(fn, res, a.X, phi, dir, visited)
	case token.ILLEGAL:
	default:
		return false
	}
	// Plain `i = x ± d` definitions.
	if a.Expr == nil {
		return false
	}
	be, ok := ast.Unparen(a.Expr).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	ident := func(e ast.Expr) (*ssa.Value, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		u, ok := fn.UseOf[id]
		return u, ok
	}
	switch be.Op {
	case token.ADD:
		if dir < 0 {
			return false
		}
		if u, ok := ident(be.X); ok && chainsToPhi(fn, res, u, phi, dir, visited) && res.Eval(be.Y).Lo >= 1 {
			return true
		}
		if u, ok := ident(be.Y); ok && chainsToPhi(fn, res, u, phi, dir, visited) && res.Eval(be.X).Lo >= 1 {
			return true
		}
	case token.SUB:
		if dir > 0 {
			return false
		}
		if u, ok := ident(be.X); ok && chainsToPhi(fn, res, u, phi, dir, visited) && res.Eval(be.Y).Lo >= 1 {
			return true
		}
	}
	return false
}

// ---- pattern 2: guarded-subtract chase ------------------------------

func guardedSubtract(info *types.Info, res *interval.Result, loop *ast.ForStmt, atom ast.Expr) bool {
	be, ok := ast.Unparen(atom).(*ast.BinaryExpr)
	if !ok || (be.Op != token.GEQ && be.Op != token.GTR) {
		return false
	}
	var x, d *types.Var
	// Form `x - d >= c` with constant c ≥ 0 (conversions ignored).
	if sub, ok := ast.Unparen(stripConv(info, be.X)).(*ast.BinaryExpr); ok && sub.Op == token.SUB {
		if c, isConst := res.Eval(be.Y).Const(); isConst && c >= 0 {
			x = rootVar(info, sub.X)
			d = rootVar(info, sub.Y)
		}
	} else if xv := rootVar(info, be.X); xv != nil {
		// Form `x >= d`.
		x = xv
		d = rootVar(info, be.Y)
	}
	if x == nil || d == nil || x == d {
		return false
	}
	// The step `x -= d` (or `x = x - d`) must be a top-level body
	// statement — the guard just checked x ≥ d against the very same
	// versions, so the subtraction cannot wrap — with the subtrahend
	// proven ≥ 1. Nothing before the step may rewrite x or d (that
	// would break the guard correspondence), and nothing anywhere in
	// the body may write x other than the step itself (a compensating
	// increase would void the decrease).
	stepIdx, stepExpr := -1, ast.Expr(nil)
	for i, st := range loop.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || rootVar(info, as.Lhs[0]) != x {
			continue
		}
		switch as.Tok {
		case token.SUB_ASSIGN:
			stepIdx, stepExpr = i, as.Rhs[0]
		case token.ASSIGN:
			if sub, ok := ast.Unparen(stripConv(info, as.Rhs[0])).(*ast.BinaryExpr); ok && sub.Op == token.SUB &&
				rootVar(info, sub.X) == x {
				stepIdx, stepExpr = i, sub.Y
			}
		}
		break // only the first write to x can match
	}
	if stepIdx < 0 || rootVar(info, stepExpr) != d || res.Eval(stepExpr).Lo < 1 {
		return false
	}
	for i, st := range loop.Body.List {
		if i == stepIdx {
			continue
		}
		if writes(info, st, x) || (i < stepIdx && writes(info, st, d)) {
			return false
		}
	}
	return true
}

// writes reports whether the statement (including nested statements,
// but not function literals) assigns the variable or takes its
// address.
func writes(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	hit := func(e ast.Expr) {
		if rootVar(info, e) == v {
			found = true
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lh := range m.Lhs {
				hit(lh)
			}
		case *ast.IncDecStmt:
			hit(m.X)
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				hit(m.X)
			}
		case *ast.RangeStmt:
			if m.Key != nil {
				hit(m.Key)
			}
			if m.Value != nil {
				hit(m.Value)
			}
		}
		return !found
	})
	return found
}

// stripConv unwraps conversions and parens: int64(x) -> x.
func stripConv(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// rootVar returns the variable behind an expression after stripping
// conversions and parens, nil if it is not a bare variable use.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(stripConv(info, e)).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// ---- pattern 3: binary-search halving -------------------------------

func halvingStep(info *types.Info, fn *ssa.Func, res *interval.Result, loop *ast.ForStmt, atom ast.Expr) bool {
	be, ok := ast.Unparen(atom).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op != token.LSS && be.Op != token.LEQ {
		return false
	}
	lo := rootVar(info, be.X)
	hi := rootVar(info, be.Y)
	if lo == nil || hi == nil || lo == hi {
		return false
	}
	// A midpoint: some variable m defined from lo and hi by >>1 or /2.
	mids := map[*types.Var]bool{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lh := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			mv := rootVar(info, lh)
			if mv == nil {
				if id, ok := ast.Unparen(lh).(*ast.Ident); ok {
					if v, ok := info.Defs[id].(*types.Var); ok {
						mv = v
					}
				}
			}
			if mv != nil && isHalving(info, as.Rhs[i], lo, hi) {
				mids[mv] = true
			}
		}
		return true
	})
	if len(mids) == 0 {
		return false
	}
	// Both cursors must step past/onto the midpoint: lo = m+1 and
	// (hi = m-1 or hi = m). With lo ≤ m ≤ hi (floor midpoint), both
	// steps shrink hi-lo every iteration.
	loStep, hiStep := false, false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for i, lh := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			target := rootVar(info, lh)
			rhs := ast.Unparen(stripConv(info, as.Rhs[i]))
			switch target {
			case lo:
				if sum, ok := rhs.(*ast.BinaryExpr); ok && sum.Op == token.ADD {
					if mids[rootVar(info, sum.X)] && isOne(info, res, sum.Y) ||
						mids[rootVar(info, sum.Y)] && isOne(info, res, sum.X) {
						loStep = true
					}
				}
			case hi:
				if mids[rootVar(info, rhs)] {
					hiStep = true
				} else if diff, ok := rhs.(*ast.BinaryExpr); ok && diff.Op == token.SUB &&
					mids[rootVar(info, diff.X)] && isOne(info, res, diff.Y) {
					hiStep = true
				}
			}
		}
		return true
	})
	return loStep && hiStep
}

func isOne(info *types.Info, res *interval.Result, e ast.Expr) bool {
	c, ok := res.Eval(e).Const()
	return ok && c == 1
}

// isHalving matches (lo+hi)>>1 and (lo+hi)/2 shapes through
// conversions.
func isHalving(info *types.Info, e ast.Expr, lo, hi *types.Var) bool {
	be, ok := ast.Unparen(stripConv(info, e)).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var half bool
	switch be.Op {
	case token.SHR:
		half = isIntLit(be.Y, 1)
	case token.QUO:
		half = isIntLit(be.Y, 2)
	}
	if !half {
		return false
	}
	mentions := func(v *types.Var) bool {
		found := false
		ast.Inspect(be.X, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u, ok := info.Uses[id].(*types.Var); ok && u == v {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return mentions(lo) && mentions(hi)
}

func isIntLit(e ast.Expr, v int64) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return false
	}
	c := constant.MakeFromLiteral(lit.Value, token.INT, 0)
	got, exact := constant.Int64Val(c)
	return exact && got == v
}

// ---- pattern 4: explicit exit from for{} ----------------------------

// hasDirectExit reports whether an unconditional loop has any exit
// edge: an unlabeled break at loop depth, a return, a goto, or a
// panic call.
func hasDirectExit(loop *ast.ForStmt) bool {
	found := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || found {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != n {
					walk(m, depth+1)
					return false
				}
			case *ast.BranchStmt:
				switch m.Tok {
				case token.BREAK:
					// An unlabeled break exits the innermost for /
					// switch / select: only depth 0 exits our loop. A
					// labeled break is resolved conservatively as an
					// exit (labels on outer statements enclose us).
					if depth == 0 || m.Label != nil {
						found = true
					}
				case token.GOTO:
					found = true
				}
			case *ast.ReturnStmt:
				found = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			}
			return !found
		})
	}
	walk(loop.Body, 0)
	return found
}
