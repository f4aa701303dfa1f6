package varintbounds

// Certification is the discharge side of the taint layer: it proves
// index and slice expressions in range instead of flagging them. A
// tainted index or slice bound is not reported when the interval
// engine shows the expression cannot fault, whatever value the
// varint read produced, so a numeric proof shrinks the
// //cfplint:ignore surface rather than growing it. It runs only for
// function declarations whose taint layer has a candidate finding at
// such a site, and it works per declaration, so whether it runs does
// not change any verdict.
//
// An index a[i] is certified when the interval of i has a
// non-negative lower bound and an upper bound below the length of a —
// either the exact length of an array, or a symbolic len bound
// established against the same SSA version of the slice the index
// reads (a reassignment of the slice between guard and use breaks the
// version identity and voids the proof). A slice expression is
// certified when each present bound is likewise proven within
// [0, len] and the low/high pair cannot cross. Function literals are
// opaque to the SSA form, so nothing inside one is certified.

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/interval"
	"cfpgrowth/internal/analysis/ssa"
)

// certifiedSites returns the Lbrack positions of the index and slice
// expressions of fd that the interval engine proves in range.
func certifiedSites(pass *analysis.Pass, fd *ast.FuncDecl, look interval.Lookuper) map[token.Pos]bool {
	g := cfg.New(fd.Body)
	fn := ssa.Build(fd, g, pass.TypesInfo)
	res := interval.Analyze(fn, pass.TypesInfo, look)

	sites := map[token.Pos]bool{}
	seen := map[ast.Node]bool{}
	for _, blk := range g.Blocks {
		if !fn.Reachable(blk) {
			continue
		}
		for _, n := range blk.Nodes {
			if _, ok := n.(cfg.RangeHead); ok {
				continue // synthetic: ast.Inspect cannot walk it
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false // opaque to the SSA form
				case *ast.IndexExpr:
					if certifyIndex(pass.TypesInfo, fn, res, m) {
						sites[m.Lbrack] = true
					}
				case *ast.SliceExpr:
					if certifySlice(pass.TypesInfo, fn, res, m) {
						sites[m.Lbrack] = true
					}
				}
				return true
			})
		}
	}
	return sites
}

// arrayLen returns the length of the (possibly pointed-to) array type
// and whether base is one.
func arrayLen(info *types.Info, base ast.Expr) (int64, bool) {
	tv, ok := info.Types[base]
	if !ok {
		return 0, false
	}
	ut := tv.Type.Underlying()
	if p, ok := ut.(*types.Pointer); ok {
		ut = p.Elem().Underlying()
	}
	if at, ok := ut.(*types.Array); ok {
		return at.Len(), true
	}
	return 0, false
}

// boundOK reports whether iv proves a value within [0, len(base)+slack]
// at this use of base: slack is -1 for an index (strictly below the
// length) and 0 for a slice bound (the length itself is legal).
func boundOK(fn *ssa.Func, iv interval.Interval, base ast.Expr, slack int64, exactLen int64, isArray bool) bool {
	if iv.Empty() || iv.Lo < 0 {
		return false
	}
	if isArray {
		return iv.Hi <= exactLen+slack
	}
	if iv.Sym == nil || iv.Sym.Off > slack {
		return false
	}
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	return fn.UseOf[id] == iv.Sym.Len
}

func certifyIndex(info *types.Info, fn *ssa.Func, res *interval.Result, m *ast.IndexExpr) bool {
	tv, ok := info.Types[m.X]
	if !ok {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map, *types.Chan:
		return false
	}
	n, isArray := arrayLen(info, m.X)
	return boundOK(fn, res.Eval(m.Index), m.X, -1, n, isArray)
}

func certifySlice(info *types.Info, fn *ssa.Func, res *interval.Result, m *ast.SliceExpr) bool {
	if m.Max != nil {
		return false // full-slice capacity bounds are out of scope
	}
	n, isArray := arrayLen(info, m.X)
	zero := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		c, ok := res.Eval(e).Const()
		return ok && c == 0
	}
	proven := func(e ast.Expr) bool {
		return boundOK(fn, res.Eval(e), m.X, 0, n, isArray)
	}
	switch {
	case zero(m.Low) && m.High == nil:
		return true // b[:], b[0:]: cannot panic
	case zero(m.Low):
		return proven(m.High)
	case m.High == nil:
		return proven(m.Low)
	default:
		// Both bounds present and non-zero: with the high bound proven
		// ≤ len, the low bound only needs 0 ≤ low ≤ high numerically
		// (low ≤ high ≤ len cannot cross or escape).
		lo, hi := res.Eval(m.Low), res.Eval(m.High)
		return proven(m.High) && !lo.Empty() && lo.Lo >= 0 && lo.Hi <= hi.Lo
	}
}
