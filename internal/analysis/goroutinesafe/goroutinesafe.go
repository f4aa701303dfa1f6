// Package goroutinesafe guards the spawn/join discipline of the
// mining pool and its observability side-channels. The sharded miner
// is only correct because every worker goroutine is accounted for:
// wg.Add must have executed on every path before the go statement
// (Add-after-spawn is the classic lost-wakeup race — Wait can return
// while a worker is still emitting), and the goroutine must call Done
// on every return path, or Wait deadlocks on the first error exit.
//
// Goroutines outside a WaitGroup must still be joinable: the body has
// to close or send on a channel that the spawning function receives
// (the Control.Watch shape — close(done) joined by <-done in the
// release closure). A goroutine with neither join is a detachment;
// deliberate detachments (a debug HTTP server) carry an audited
// //cfplint:ignore goroutinesafe directive instead.
//
// WaitGroups and channels are matched by their source expression
// (types.ExprString), so field-held groups (m.wg) pair up the same
// way local ones do.
package goroutinesafe

import (
	"go/ast"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
)

// Analyzer is the goroutinesafe rule, scoped by the driver to the
// concurrent layers (internal/mine, internal/core, internal/pfp,
// internal/obs).
var Analyzer = &analysis.Analyzer{
	Name: "goroutinesafe",
	Doc: `requires wg.Add to execute on every path before a go statement
whose goroutine calls wg.Done, requires that goroutine to call Done on
every return path, and flags goroutines with neither a WaitGroup join
nor a channel (close/send received by the spawner) — an unjoined
goroutine either races Wait or leaks past the run`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range pass.FuncDecls() {
		declAdds := addKeys(pass.TypesInfo, fd.Body)
		for i, body := range scopes(fd.Body) {
			check(pass, fd, body, i > 0, declAdds)
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

// addState is the must-set of WaitGroup keys whose Add has executed on
// every path to this point.
type addState map[string]bool

type addProblem struct{ info *types.Info }

func (p addProblem) Entry() addState { return addState{} }

func (p addProblem) Clone(s addState) addState {
	c := make(addState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (p addProblem) Join(a, b addState) addState {
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
	return a
}

func (p addProblem) Equal(a, b addState) bool {
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

func (p addProblem) Refine(s addState, cond ast.Expr, taken bool) addState { return s }

func (p addProblem) Transfer(s addState, n ast.Node) addState {
	dataflow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := wgCall(p.info, call, "Add"); ok {
			s[key] = true
		}
		if key, ok := wgCall(p.info, call, "Wait"); ok {
			// After Wait the group is spent: a later spawn needs its own
			// Add.
			delete(s, key)
		}
		return true
	})
	return s
}

func check(pass *analysis.Pass, fd *ast.FuncDecl, body *ast.BlockStmt, nested bool, declAdds map[string]bool) {
	info := pass.TypesInfo
	if !hasGo(body) {
		return
	}

	g := cfg.New(body)
	prob := addProblem{info: info}
	res := dataflow.Forward[addState](g, prob)
	res.Iterate(g, prob, func(n ast.Node, before addState) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if lit == nil {
			// A named-call goroutine: its body is elsewhere, so join
			// evidence is invisible here; require the spawner to hold the
			// join or audit the detachment.
			if !joinsChannel(info, nil, fd) {
				pass.Reportf(gs.Pos(), "goroutine spawned by calling %s is not joined here (no WaitGroup, no channel received by this function); join it or audit the detachment with //cfplint:ignore goroutinesafe", types.ExprString(gs.Call.Fun))
			}
			return
		}
		key := doneKey(info, lit)
		if key == "" {
			// No WaitGroup: the body must signal a channel this function
			// receives.
			if !joinsChannel(info, lit, fd) {
				pass.Reportf(gs.Pos(), "goroutine is neither joined by a WaitGroup nor signals a channel its spawner receives; a detached goroutine can outlive the run — join it or audit with //cfplint:ignore goroutinesafe")
			}
			return
		}
		if !before[key] {
			// Inside a nested literal the Add may live in the enclosing
			// scope; dominance across scopes is out of reach, so only the
			// decl-wide presence is required there.
			if !nested || !declAdds[key] {
				pass.Reportf(gs.Pos(), "%s.Add does not execute on every path before this go statement, but the goroutine calls %s.Done; Wait can return while the goroutine still runs — call Add before spawning", key, key)
			}
		}
		if !doneAllPaths(info, lit.Body, key) {
			pass.Reportf(gs.Pos(), "the goroutine calls %s.Done on some return paths only, so %s.Wait deadlocks when the other paths run; defer the Done", key, key)
		}
	})
}

// hasGo reports whether body spawns a goroutine in THIS scope (nested
// literals are separate scopes and are skipped).
func hasGo(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			found = true
		}
		return !found
	})
	return found
}

// doneAllPaths reports whether every return path of body executes
// key.Done (directly or deferred).
func doneAllPaths(info *types.Info, body *ast.BlockStmt, key string) bool {
	g := cfg.New(body)
	prob := doneProblem{info: info, key: key}
	res := dataflow.Forward[doneState](g, prob)
	if !res.ExitReached {
		return true // loops forever or always panics: Wait never sees it return
	}
	return res.Exit.done || res.Exit.deferred
}

type doneState struct {
	done     bool // key.Done executed on every path (must)
	deferred bool // a deferred key.Done is registered on every path (must)
}

type doneProblem struct {
	info *types.Info
	key  string
}

func (p doneProblem) Entry() doneState            { return doneState{} }
func (p doneProblem) Clone(s doneState) doneState { return s }
func (p doneProblem) Join(a, b doneState) doneState {
	return doneState{done: a.done && b.done, deferred: a.deferred && b.deferred}
}
func (p doneProblem) Equal(a, b doneState) bool                        { return a == b }
func (p doneProblem) Refine(s doneState, c ast.Expr, t bool) doneState { return s }

func (p doneProblem) Transfer(s doneState, n ast.Node) doneState {
	switch n := n.(type) {
	case *ast.DeferStmt:
		if p.callsDone(n.Call) {
			s.deferred = true
		}
	case *ast.ReturnStmt:
		s.done = s.done || s.deferred
	default:
		dataflow.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if key, ok := wgCall(p.info, call, "Done"); ok && key == p.key {
					s.done = true
				}
			}
			return true
		})
	}
	return s
}

// callsDone reports whether a deferred call runs key.Done, directly or
// through a deferred literal.
func (p doneProblem) callsDone(call *ast.CallExpr) bool {
	if key, ok := wgCall(p.info, call, "Done"); ok && key == p.key {
		return true
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if key, ok := wgCall(p.info, c, "Done"); ok && key == p.key {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// doneKey returns the WaitGroup key the literal's body calls Done on,
// or "".
func doneKey(info *types.Info, lit *ast.FuncLit) string {
	key := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if k, ok := wgCall(info, call, "Done"); ok {
				key = k
				return false
			}
		}
		return true
	})
	return key
}

// addKeys collects every WaitGroup key Added anywhere in body.
func addKeys(info *types.Info, body *ast.BlockStmt) map[string]bool {
	keys := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if k, ok := wgCall(info, call, "Add"); ok {
				keys[k] = true
			}
		}
		return true
	})
	return keys
}

// joinsChannel reports whether some channel the goroutine body closes
// or sends on is received (a <-ch or range) somewhere in the spawning
// declaration. With lit == nil (a named-call goroutine) only a receive
// on ANY channel in the spawner counts as join evidence — too weak to
// pair precisely, so the caller treats it as unresolved and reports.
func joinsChannel(info *types.Info, lit *ast.FuncLit, fd *ast.FuncDecl) bool {
	if lit == nil {
		return false
	}
	signaled := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			signaled[types.ExprString(n.Chan)] = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					signaled[types.ExprString(n.Args[0])] = true
				}
			}
		}
		return true
	})
	if len(signaled) == 0 {
		return false
	}
	joined := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && signaled[types.ExprString(n.X)] {
				joined = true
			}
		case *ast.RangeStmt:
			if signaled[types.ExprString(n.X)] {
				joined = true
			}
		}
		return true
	})
	return joined
}

// wgCall reports whether call is a sync.WaitGroup method call of the
// given name, returning the receiver's source expression as the
// pairing key.
func wgCall(info *types.Info, call *ast.CallExpr, name string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !analysis.HasRecv(fn, "sync", "WaitGroup") {
		return "", false
	}
	return types.ExprString(sel.X), true
}
