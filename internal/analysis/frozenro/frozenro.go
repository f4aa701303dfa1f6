// Package frozenro proves the serving artifact immutable: no write may
// reach memory transitively pointed to by a frozen object — the result
// of a //cfplint:freezes function (core.Convert, core.ReadArray) —
// after that function returns. The ROADMAP's resident cfpserve daemon
// and atomic generation swap are only sound if this holds; a single
// store through an aliased *Array silently corrupts every concurrent
// reader.
//
// The check rides on pointsto's region model. Freezer calls yield
// fresh Frozen-region objects (the freeze boundary is the call result,
// so a constructor's own writes to the under-construction array pass),
// and phantom fields of frozen objects are themselves frozen, so
// a.data[i] = x, a.starts[k]++, copy(a.nodes, ...) and append through
// any alias are all caught. Two directions:
//
//   - direct stores whose base may point at a Frozen object,
//   - call sites passing a frozen value into a parameter slot the
//     callee writes through per pointsto's write mask (cross-function,
//     cross-package via the shared fact store).
package frozenro

import (
	"go/ast"
	"go/token"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/pointsto"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer flags writes reaching frozen memory.
var Analyzer = &analysis.Analyzer{
	Name: "frozenro",
	Doc: `flags writes that may reach memory transitively pointed to by a
frozen serving artifact (the result of a //cfplint:freezes function
such as core.Convert or core.ReadArray): the CFP-array must be
immutable after construction for the resident daemon and generation
swap to be sound`,
	Requires:  []*analysis.Analyzer{pointsto.Analyzer},
	FactTypes: []analysis.Fact{new(pointsto.Escapes)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	r := pointsto.ResultOf(pass)
	if r == nil {
		return nil
	}
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	// Direction 1: direct stores with a possibly-frozen base.
	for _, st := range r.Stores() {
		for _, o := range r.BaseObjects(st) {
			if o.Region&pointsto.Frozen != 0 {
				report(st.Pos, "write to frozen memory (%s): the serving artifact is immutable after construction", o.Label)
				break
			}
		}
	}

	// Direction 2: frozen values handed to write-through parameter
	// slots of callees.
	for _, fd := range pass.FuncDecls() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			writes := pointsto.ParamWrites(pass, fn)
			if writes == 0 {
				return true
			}
			for i, arg := range summary.ArgExprs(call, fn) {
				if arg == nil || i >= 32 || writes&(1<<i) == 0 {
					continue
				}
				for _, o := range r.ExprPts(arg) {
					if o.Region&pointsto.Frozen != 0 {
						report(call.Pos(), "%s may write through its parameter %d, which can point to frozen memory (%s)", fn.Name(), i, o.Label)
					}
				}
			}
			return true
		})
	}
	return nil
}
