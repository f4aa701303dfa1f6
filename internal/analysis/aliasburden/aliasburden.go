// Package aliasburden keeps the hot path free of parameter aliasing:
// a //cfplint:hot function must not be handed two arguments that may
// point at the same mutable object when it writes through either one.
//
// The mine/serve inner loops are written as if their parameters were
// noalias — a shard's output buffer is appended to while the input
// triple slice is scanned, counts are bumped while starts are read.
// If a caller ever passes overlapping memory into two such slots, the
// code is simply wrong (a write through one parameter invalidates what
// was just read through the other), and the compiler's bounds-check
// and load elimination give up in exactly the loops where it matters.
// Neither half of pointsto sees this alone: its write mask knows a
// function writes through slot 0, its points-to sets know two
// expressions share an object — only combining the two proves (or
// refutes) the noalias assumption at every hot call site.
//
// The check is caller-side: every call in the package whose callee is
// declared here with the //cfplint:hot doc marker (analysis.IsHot) is
// examined; for each argument pair where the callee's write mask says
// it writes through at least one of the two slots, the
// pair's points-to sets must not share a mutable object. Objects whose
// region is exactly Frozen are exempt — frozen memory cannot be
// written (frozenro enforces that separately), so sharing it between
// read slots is benign. Hot callees in other packages are skipped:
// the marker is a doc comment, invisible in export data, and the
// repo's hot functions are called from their own package's
// orchestrators.
package aliasburden

import (
	"go/ast"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/pointsto"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer flags aliasing argument pairs at hot call sites.
var Analyzer = &analysis.Analyzer{
	Name: "aliasburden",
	Doc: `flags call sites passing two arguments that may alias the same
mutable object into a //cfplint:hot function that writes through one of
them: hot inner loops assume noalias parameters, and an aliasing caller
breaks both correctness and the optimizer`,
	Requires:  []*analysis.Analyzer{pointsto.Analyzer},
	FactTypes: []analysis.Fact{new(pointsto.Escapes)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	r := pointsto.ResultOf(pass)
	if r == nil {
		return nil
	}

	// Hot callees declared in this package.
	hot := map[*types.Func]bool{}
	for _, fd := range pass.FuncDecls() {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && analysis.IsHot(fd) {
			hot[fn] = true
		}
	}
	if len(hot) == 0 {
		return nil
	}

	for _, fd := range pass.FuncDecls() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || !hot[fn] {
				return true
			}
			writes := pointsto.ParamWrites(pass, fn)
			if writes == 0 {
				return true
			}
			args := summary.ArgExprs(call, fn)
			pts := make([][]*pointsto.Object, len(args))
			for i, a := range args {
				if a != nil {
					pts[i] = r.ExprPts(a)
				}
			}
			for i := 0; i < len(args); i++ {
				for j := i + 1; j < len(args); j++ {
					if i >= 32 || j >= 32 {
						continue
					}
					// Aliasing only burdens the callee when it writes
					// through at least one slot of the pair.
					if writes&(1<<i|1<<j) == 0 {
						continue
					}
					if o := sharedMutable(pts[i], pts[j]); o != nil {
						pass.Reportf(call.Pos(),
							"hot function %s may be handed aliasing arguments %d and %d (both can point to %s) and writes through the pair: hot paths assume noalias parameters",
							fn.Name(), i, j, o.Label)
						return true // one report per call site
					}
				}
			}
			return true
		})
	}
	return nil
}

// sharedMutable returns an object present in both points-to sets that
// is writable (not purely frozen), or nil.
func sharedMutable(a, b []*pointsto.Object) *pointsto.Object {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	in := map[int]bool{}
	for _, o := range a {
		in[o.ID] = true
	}
	for _, o := range b {
		if in[o.ID] && o.Region != pointsto.Frozen {
			return o
		}
	}
	return nil
}
