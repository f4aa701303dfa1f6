// Package sinkguard enforces the PR 1 concurrency invariant: once a
// mining run's mine.Control is stopped — by cancellation, a blown
// budget, or a failing sink — no further itemsets may be emitted.
// Mechanically: every call to a Sink's Emit method must be dominated
// by a stop check — a poll of Control.Err or Control.Stopped that
// happens on every control-flow path from function entry to the
// emission.
//
// The rule is path-sensitive. It solves a must-analysis ("has a stop
// check happened on all paths to here?") over the function's CFG, so
// a check inside only one branch of an if does not excuse an emission
// after the join, while a check in the condition position (`if
// ctl.Stopped() { return }`) guards both arms. Two refinements make
// the common idioms precise without suppressions:
//
//   - Helper facts: before checking anything, Run records a
//     ChecksControl fact for every function that performs a stop check
//     on every path to its return (the check-then-emit helpers of the
//     miners). Calling such a helper counts as a check in the caller,
//     including across packages when the driver shares a fact store.
//   - Function literals inherit the dataflow state at their creation
//     point: a literal created after an entry guard is itself guarded,
//     but a check inside a literal body never guards emissions in the
//     enclosing function (the literal runs at call time, not here).
//
// Checks inside defer and go statements do not guard later emissions
// (they run at unwind / on another goroutine).
package sinkguard

import (
	"go/ast"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
	"cfpgrowth/internal/analysis/summary"
)

// ChecksControl is the fact exported for functions that poll a
// mine.Control (directly or via another ChecksControl function) on
// every path from entry to every return.
type ChecksControl struct{}

// AFact marks ChecksControl as a fact type.
func (*ChecksControl) AFact() {}

// EmitsUnguarded is the fact exported for functions containing an
// emission — a Sink.Emit or a call to another EmitsUnguarded function
// — at a point no internal stop-check dominates. Such a function
// relies on its CALLER holding the check (the raw-plumbing-helper
// shape, usually carrying a local //cfplint:ignore), so the obligation
// is re-imposed at every call site. Helpers whose emissions are all
// internally dominated do NOT get the fact: they are safe from any
// caller, checked or not.
type EmitsUnguarded struct{}

// AFact marks EmitsUnguarded as a fact type.
func (*EmitsUnguarded) AFact() {}

// Analyzer is the sinkguard rule. The driver applies it to the mining
// packages (internal/core, internal/pfp, internal/fptree,
// internal/algo/...); package internal/mine itself, which implements
// the checked sinks, is exempt.
var Analyzer = &analysis.Analyzer{
	Name: "sinkguard",
	Doc: `requires every Sink.Emit call to be dominated by a
mine.Control stop-check (Err or Stopped) — on every control-flow path
from function entry, or inside a helper that provably checks on all
paths — so no itemset is emitted after the run has been stopped; an
unguarded call to a helper whose summary says it emits (EmitsSink)
without checking internally is flagged the same way, so wrapping the
Emit in a package-local helper cannot hide it`,
	Requires:  []*analysis.Analyzer{summary.Analyzer},
	FactTypes: []analysis.Fact{new(ChecksControl), new(EmitsUnguarded), new(summary.Effects)},
	Run:       run,
}

const minePath = "cfpgrowth/internal/mine"

// checkedProblem is the must-analysis lattice: state is "a stop check
// has happened on every path to this point".
type checkedProblem struct {
	pass *analysis.Pass
	// lookup resolves callee summaries.
	lookup summary.Lookup
	// graphs memoizes one CFG per body: the ChecksControl fixpoint,
	// the EmitsUnguarded fixpoint and the reporting pass all walk the
	// same bodies.
	graphs map[*ast.BlockStmt]*cfg.Graph
}

// cfgOf returns the (memoized) CFG of body.
func (p checkedProblem) cfgOf(body *ast.BlockStmt) *cfg.Graph {
	g, ok := p.graphs[body]
	if !ok {
		g = cfg.New(body)
		p.graphs[body] = g
	}
	return g
}

func (p checkedProblem) Entry() bool { return false }

func (p checkedProblem) Transfer(s bool, n ast.Node) bool {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred or spawned check does not guard what follows.
		return s
	}
	dataflow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(p.pass.TypesInfo, call); fn != nil && p.isCheck(fn) {
			s = true
		}
		return true
	})
	return s
}

func (p checkedProblem) Refine(s bool, cond ast.Expr, taken bool) bool { return s }
func (p checkedProblem) Join(a, b bool) bool                           { return a && b }
func (p checkedProblem) Equal(a, b bool) bool                          { return a == b }
func (p checkedProblem) Clone(s bool) bool                             { return s }

// isCheck reports whether calling fn counts as a stop check: a direct
// Control.Err/Stopped poll or a function carrying the ChecksControl
// fact.
func (p checkedProblem) isCheck(fn *types.Func) bool {
	if isControlCheck(fn) {
		return true
	}
	return p.pass.ImportObjectFact(fn, new(ChecksControl))
}

func run(pass *analysis.Pass) error {
	prob := checkedProblem{pass: pass, lookup: summary.Lookuper(pass), graphs: map[*ast.BlockStmt]*cfg.Graph{}}
	decls := pass.FuncDecls()
	// Phase 1: fixpoint over ChecksControl facts: marking one helper
	// can make a second helper (which calls the first) check on all
	// paths too.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || pass.ImportObjectFact(obj, new(ChecksControl)) {
				continue
			}
			res := dataflow.Forward[bool](prob.cfgOf(fd.Body), prob)
			if res.ExitReached && res.Exit {
				pass.ExportObjectFact(obj, &ChecksControl{})
				changed = true
			}
		}
	}
	// Phase 2: fixpoint over EmitsUnguarded facts, silently. A helper
	// whose emission depends on the caller's check makes every
	// unchecked caller an emission site of its own, so marking one
	// helper can mark a second that calls it.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || pass.ImportObjectFact(obj, new(EmitsUnguarded)) {
				continue
			}
			if checkBody(pass, prob, fd.Body, false, false) {
				pass.ExportObjectFact(obj, &EmitsUnguarded{})
				changed = true
			}
		}
	}
	// Phase 3: report, with every fact in place.
	for _, fd := range decls {
		checkBody(pass, prob, fd.Body, false, true)
	}
	return nil
}

// checkBody analyzes one function body whose entry state is entry,
// finding unguarded emissions and recursing into function literals
// with the state at their creation point. With report set it emits
// diagnostics; it always returns whether any unguarded emission
// exists (the EmitsUnguarded condition).
func checkBody(pass *analysis.Pass, prob checkedProblem, body *ast.BlockStmt, entry, report bool) bool {
	g := prob.cfgOf(body)
	entryProb := entryProblem{checkedProblem: prob, entry: entry}
	res := dataflow.Forward[bool](g, entryProb)
	found := false
	res.Iterate(g, entryProb, func(n ast.Node, before bool) {
		switch n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Defer/go bodies see the current state but cannot GEN; an
			// Emit inside them is checked against the creation state.
			found = visitNode(pass, prob, n, before, true, report) || found
			return
		}
		found = visitNode(pass, prob, n, before, false, report) || found
	})
	return found
}

// visitNode walks one CFG node in evaluation order, interleaving
// reporting with the same GEN logic the transfer uses so that a check
// and an emission inside a single statement are ordered correctly. It
// returns whether the node contains an unguarded emission.
func visitNode(pass *analysis.Pass, prob checkedProblem, n ast.Node, s bool, frozen, report bool) bool {
	found := false
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, m)
			if fn == nil {
				return true
			}
			if analysis.IsSinkEmit(fn) && !s {
				found = true
				if report {
					pass.Reportf(m.Pos(), "Sink.Emit is not dominated by a mine.Control stop-check (Err/Stopped) in this function")
				}
			}
			// A helper that emits somewhere below it (per its summary)
			// while relying on its caller's stop-check (the EmitsUnguarded
			// fact) inherits the Emit's obligation at this call site:
			// wrapping the emission in a package-local helper must not
			// launder the check away. Helpers whose internal emissions are
			// all self-dominated carry no fact and are safe from any
			// caller.
			if !s && !analysis.IsSinkEmit(fn) && !prob.isCheck(fn) &&
				pass.ImportObjectFact(fn, new(EmitsUnguarded)) {
				if eff := prob.lookup(fn); eff != nil && eff.EmitsSink {
					found = true
					if report {
						pass.Reportf(m.Pos(), "call to %s emits itemsets (per its summary) without an internal stop-check, and this call is not dominated by one either; an itemset can be emitted after the run has stopped", fn.Name())
					}
				}
			}
			if !frozen && prob.isCheck(fn) {
				s = true
			}
		case *ast.FuncLit:
			found = checkBody(pass, prob, m.Body, s, report) || found
		}
		return true
	})
	return found
}

// entryProblem wraps checkedProblem with a configurable entry state so
// nested literals inherit their creation-point state.
type entryProblem struct {
	checkedProblem
	entry bool
}

func (p entryProblem) Entry() bool { return p.entry }

// isControlCheck reports whether fn is (*mine.Control).Err or
// (*mine.Control).Stopped.
func isControlCheck(fn *types.Func) bool {
	return (fn.Name() == "Err" || fn.Name() == "Stopped") && analysis.HasRecv(fn, minePath, "Control")
}
