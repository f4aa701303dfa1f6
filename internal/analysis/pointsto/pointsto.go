// Package pointsto is the heap layer of the analysis framework: an
// Andersen-style points-to solver — flow-insensitive, field-sensitive,
// context-insensitive — built over the package AST, the call graph,
// and the shared fact store. Every allocation site becomes an abstract
// object; assignments become copy edges in a constraint graph; field,
// element, and pointee accesses become load/store constraints resolved
// against the current points-to sets; cycles in the copy graph are
// collapsed with the call graph's Tarjan core (callgraph.SCCInts) so
// each solve round is one topological union sweep.
//
// What makes the layer useful to this repo is not aliasing per se but
// *lifetime regions*: each abstract object is tagged with the region
// its memory belongs to —
//
//   - Arena: interior pointers into an internal/arena.Arena buffer
//     (valid only until the next Alloc/Realloc/Reset),
//   - Pool: a sync.Pool cycle or acquire*/release* free-list cycle
//     (valid only until the matching Put/release),
//   - Frozen: the immutable serving artifact — results of functions
//     marked //cfplint:freezes (core.Convert, core.ReadArray),
//   - Ring: a trace-ring slot, via //cfplint:region ring,
//   - Heap and Frame for ordinary allocations and address-taken
//     locals.
//
// Regions are inherited by derived pointers: a phantom object
// materialized by loading a field of a Pool-region object is itself
// Pool-region and Derived, rooted at the buffer it was carved from.
// That is the property frozenro, arenaescape, and aliasburden consume:
// "no store whose base may be Frozen", "no Arena/Pool-derived pointer
// retained past its release", "no two hot-path arguments sharing an
// object". The same store sites answer which parameters a function
// may write through (Escapes.Writes) — through any local alias, which
// a syntactic scan cannot see — for frozenro, aliasburden and
// sharedro.
//
// Interprocedurally the solver composes the same way summary does:
// in-package calls bind arguments to parameter nodes directly;
// cross-package calls resolve through Points/Escapes facts in the
// shared fact store (the driver analyzes packages in dependency
// order), falling back to summary.Effects for pool knowledge
// (GetsPooled, PutsParams).
// Unresolved dynamic calls follow the framework's documented ⊤ policy:
// their results are opaque heap objects and their arguments are
// assumed unretained — the same unsoundness trade summary makes, kept
// here so the two layers agree on what they cannot see.
//
// Termination: objects are finite (allocation sites, plus phantom
// field objects memoized per (object, field) and depth-limited to 2 —
// deeper loads alias the depth-2 object itself, which collapses
// self-referential structs like fptree parent/nodelink chains), edges
// only grow, and all transfer functions are monotone.
package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/summary"
)

// Region is a bitmask of lifetime regions an abstract object's memory
// may belong to. A fresh allocation has exactly one bit; sets appear
// when call-result facts merge several possible origins.
type Region uint8

const (
	// Heap is an ordinary garbage-collected allocation.
	Heap Region = 1 << iota
	// Frame is an address-taken local or value aggregate (lives until
	// its frame returns, unless escape analysis says otherwise).
	Frame
	// Arena marks memory inside an internal/arena.Arena buffer: valid
	// only until the arena's next Alloc/Realloc/Reset.
	Arena
	// Pool marks a pooled buffer cycle — sync.Pool Get/Put or the
	// acquire*/release* free-list convention: valid until released.
	Pool
	// Frozen marks the immutable serving artifact: results of
	// //cfplint:freezes functions (core.Convert, core.ReadArray) and
	// memory reachable from them. No write may land here.
	Frozen
	// Ring marks a trace-ring slot (//cfplint:region ring): valid until
	// the ring wraps.
	Ring
)

// String renders the region set compactly ("arena|pool"), or "none".
func (r Region) String() string {
	names := []struct {
		bit  Region
		name string
	}{
		{Heap, "heap"}, {Frame, "frame"}, {Arena, "arena"},
		{Pool, "pool"}, {Frozen, "frozen"}, {Ring, "ring"},
	}
	var parts []string
	for _, n := range names {
		if r&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// An Object is one abstract memory object: an allocation site, a
// parameter's unknown pointee, a global's pointee, or a phantom field
// of an opaque object.
type Object struct {
	// ID indexes the solver's object table (and points-to bitsets).
	ID int
	// Pos is the allocation site (or the parameter/load position that
	// materialized the object).
	Pos token.Pos
	// Label is a short site description for diagnostics: "make", "lit",
	// "param d", "field sup of param d", "result of acquireDecode".
	Label string
	// Region is the lifetime region set of the object's memory.
	Region Region
	// Derived marks an interior pointer into a region-carrying buffer
	// (a phantom field of an Arena/Pool/Frozen/Ring object, or an
	// accessor result): it dies when its root's cycle ends.
	Derived bool
	// ParamSlot is the parameter slot this object stands for (receiver
	// 0 for methods, summary's convention), or -1.
	ParamSlot int
	// Global marks the pointee of a package-level variable.
	Global bool

	// Fn is the declaring function for parameter phantoms and local
	// allocations (nil for globals and imports).
	Fn *types.Func

	// roots is the set of lifecycle-root object IDs a Derived object
	// was carved from (empty for roots themselves).
	roots bits
	// rootNode, when valid, is the node whose objects this derived
	// object roots at (arena accessor receivers); resolved post-solve.
	rootNode nodeID
	// parent is the opaque object this phantom was loaded from, or -1.
	parent int
	// opaque objects materialize phantom children on field loads:
	// params, globals, and region-carrying buffers whose layout the
	// function cannot see.
	opaque bool
	// depth is the phantom chain depth (0 for real sites); at
	// maxPhantomDepth further loads alias the object itself.
	depth int
}

// Roots returns the IDs of the lifecycle roots a Derived object was
// carved from (its own ID for a root object).
func (o *Object) Roots() []int {
	if o.roots == nil {
		return []int{o.ID}
	}
	var out []int
	o.roots.forEach(func(id int) { out = append(out, id) })
	if len(out) == 0 {
		return []int{o.ID}
	}
	return out
}

// Points is the per-function fact consumed by callers in other
// packages: what region of memory does a call to this function hand
// out?
type Points struct {
	// Fresh is the region set of objects the function may return that
	// it allocated or acquired itself (Frozen for //cfplint:freezes
	// functions, Pool for pool getters, and so on). Zero means the
	// function returns nothing pointer-shaped of its own.
	Fresh Region
	// ReturnsParams: bit i set when the function may return parameter
	// slot i's value itself (alias-preserving wrappers).
	ReturnsParams uint32
	// ReturnsParamMem: bit i set when the function may return memory
	// reachable from parameter slot i (accessors like arena.Bytes):
	// the caller derives the result from the argument's objects.
	ReturnsParamMem uint32
}

// AFact marks Points as a fact type.
func (*Points) AFact() {}

// Escapes is the per-function fact recording what the function may do
// to its parameters beyond reading them: retain them past the call, or
// write through them.
type Escapes struct {
	// Params: bit i set when slot i's value may be retained anywhere —
	// stored into a global or another parameter's memory, sent on a
	// channel, or captured by a spawned goroutine (even one the
	// function joins before returning).
	Params uint32
	// Lasting: the subset of Params that outlives the call for certain:
	// joined-goroutine captures are excluded (a function that calls
	// sync.WaitGroup.Wait is credited with collecting its spawns —
	// goroutinesafe checks that discipline separately). Consumers
	// reasoning about release safety (arenaescape, poolreturn) use
	// this mask.
	Lasting uint32
	// Writes: bit i set when memory reachable from slot i may be
	// written — a store, ++, copy or append whose base may point at an
	// object rooted at the parameter (through any local alias), or an
	// argument handed to a callee slot that writes. frozenro,
	// aliasburden and sharedro read it through ParamWrites.
	Writes uint32
}

// AFact marks Escapes as a fact type.
func (*Escapes) AFact() {}

// Analyzer runs the solver once per package, exports Points/Escapes
// facts for every declared function, and caches the full Result for
// the same-package analyzers that Require it. It reports nothing
// itself.
var Analyzer = &analysis.Analyzer{
	Name: "pointsto",
	Doc: `Andersen-style points-to and lifetime-region solver: allocation
sites become abstract objects tagged arena/pool/frozen/ring/heap,
assignments become a constraint graph collapsed with Tarjan SCCs, and
per-function Points/Escapes facts (with the parameter write mask) let
the region model compose across packages; frozenro, arenaescape,
aliasburden, sharedro and the rewired poolreturn consume the result`,
	Requires:  []*analysis.Analyzer{summary.Analyzer},
	FactTypes: []analysis.Fact{new(Points), new(Escapes), new(summary.Effects)},
	Run:       run,
}

// maxSlots caps the parameter bitmasks, matching summary.
const maxSlots = 32

// maxPhantomDepth bounds phantom field chains; a load from a depth-2
// phantom yields the phantom itself (self-alias), which is what makes
// recursive node structures (parent/next chains) converge.
const maxPhantomDepth = 2

// results caches one Result per analyzed package. The driver loads
// each package once (shared Loader), so *types.Package is a stable
// key; fixtures load per test and simply add entries.
var (
	resultsMu sync.Mutex
	results   = map[*types.Package]*Result{}
)

// ResultOf returns the solver result for the pass's package. It is
// only valid in analyzers that Require Analyzer.
func ResultOf(pass *analysis.Pass) *Result {
	resultsMu.Lock()
	defer resultsMu.Unlock()
	return results[pass.Pkg]
}

func run(pass *analysis.Pass) error {
	s := newSolver(pass)
	s.generate()
	s.solve()
	r := &Result{s: s}
	resultsMu.Lock()
	results[pass.Pkg] = r
	resultsMu.Unlock()

	// Export facts in declaration order for determinism.
	for _, fd := range pass.FuncDecls() {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		p, e := s.factsFor(fn)
		if p.Fresh != 0 || p.ReturnsParams != 0 || p.ReturnsParamMem != 0 {
			pass.ExportObjectFact(fn, p)
		}
		if e.Params != 0 || e.Writes != 0 {
			pass.ExportObjectFact(fn, e)
		}
	}
	return nil
}

// ParamWrites returns the write-through parameter mask of fn (its
// Escapes fact's Writes), or 0 when nothing is known. Callers must
// Require Analyzer and declare Escapes in their FactTypes.
func ParamWrites(pass *analysis.Pass, fn *types.Func) uint32 {
	var e Escapes
	if fn == nil || !pass.ImportObjectFact(fn, &e) {
		return 0
	}
	return e.Writes
}

// A Result answers the queries the consuming analyzers need. All
// methods are read-only and safe after solve.
type Result struct {
	s *solver
}

// ExprPts returns the objects the expression may point to, nil when
// the expression was not tracked (non-pointer types, unreached code).
func (r *Result) ExprPts(e ast.Expr) []*Object {
	n, ok := r.s.exprN[e]
	if !ok || n == nilNode {
		return nil
	}
	return r.s.objects(r.s.pts[n])
}

// VarPts returns the objects the variable may point to.
func (r *Result) VarPts(v types.Object) []*Object {
	n, ok := r.s.varN[v]
	if !ok || n == nilNode {
		return nil
	}
	return r.s.objects(r.s.pts[n])
}

// A Store is one store site: a write through a base expression into a
// field, element, or pointee. BaseObjects resolves what it may hit.
type Store struct {
	// Pos is the write position.
	Pos token.Pos
	// Field is the written field name, "[]" for elements, "*" for
	// pointees, "#k" for map keys.
	Field string
	// Fn is the enclosing declared function.
	Fn   *types.Func
	base nodeID
}

// Stores lists every store constraint of the package in source order.
func (r *Result) Stores() []Store {
	out := make([]Store, 0, len(r.s.stores))
	for i := range r.s.stores {
		st := &r.s.stores[i]
		if st.pos == token.NoPos {
			continue // synthetic (capture/return plumbing)
		}
		out = append(out, Store{Pos: st.pos, Field: st.field, Fn: st.fn, base: st.base})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// BaseObjects returns the objects a store's base may point to — the
// memory the write may land in.
func (r *Result) BaseObjects(st Store) []*Object {
	return r.s.objects(r.s.pts[st.base])
}

// Reachable returns objs together with everything reachable from them
// through stored fields.
func (r *Result) Reachable(objs []*Object) []*Object {
	var set bits
	for _, o := range objs {
		set.add(o.ID)
	}
	r.s.fieldClosure(&set)
	return r.s.objects(set)
}

// LitCaptures returns the variables a function literal captures from
// its enclosing function (free variables that are tracked pointers),
// in source order of first use. It replaces lexical ident scans:
// shadowed redeclarations inside the literal are not captures.
func (r *Result) LitCaptures(lit *ast.FuncLit) []types.Object {
	return r.s.caps[lit]
}

// An Escape is one site where a value may outlive the enclosing
// function's frame discipline: a return, a store to a global, a
// channel send, a goroutine capture, or retention by a callee.
type Escape struct {
	// Pos is the escaping site.
	Pos token.Pos
	// Kind describes the escape route.
	Kind EscapeKind
	// Fn is the enclosing declared function.
	Fn   *types.Func
	node nodeID
}

// EscapeKind classifies escape routes.
type EscapeKind uint8

const (
	// EscReturn: the value is returned by the function.
	EscReturn EscapeKind = iota
	// EscGlobal: stored into a package-level variable.
	EscGlobal
	// EscSend: sent on a channel.
	EscSend
	// EscSpawn: captured by (or passed to) a spawned goroutine.
	EscSpawn
	// EscCallee: retained by a callee per its Escapes fact.
	EscCallee
)

// String names the escape route for diagnostics.
func (k EscapeKind) String() string {
	switch k {
	case EscReturn:
		return "returned"
	case EscGlobal:
		return "stored to a global"
	case EscSend:
		return "sent on a channel"
	case EscSpawn:
		return "captured by a spawned goroutine"
	case EscCallee:
		return "retained by a callee"
	}
	return "escaped"
}

// Escapes lists the package's escape sites in source order.
func (r *Result) Escapes() []Escape {
	out := make([]Escape, 0, len(r.s.escs))
	for _, e := range r.s.escs {
		out = append(out, Escape{Pos: e.pos, Kind: e.kind, Fn: e.fn, node: e.node})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// EscapedObjects returns the objects that escape at the site,
// including everything reachable from them through stored fields (a
// retained struct drags its pointees with it).
func (r *Result) EscapedObjects(e Escape) []*Object {
	set := r.s.pts[e.node].clone()
	r.s.fieldClosure(&set)
	return r.s.objects(set)
}

// FnJoins reports whether the declared function calls
// sync.WaitGroup.Wait somewhere in its body — the solver's signal that
// its spawns are collected before return.
func (r *Result) FnJoins(fn *types.Func) bool {
	return r.s.joins[fn]
}

// Released lists the release events of one declared function: pool
// Puts, arena Resets, and release*-named calls, each resolved to the
// lifecycle roots it ends (derived pointers resolve to their roots).
func (r *Result) Released(fn *types.Func) []Release {
	var out []Release
	for _, rec := range r.s.relRecs[fn] {
		rel := Release{Pos: rec.pos}
		var ids bits
		r.s.pts[rec.node].forEach(func(id int) {
			o := r.s.objs[id]
			if o.Derived {
				ids.or(o.roots)
			} else {
				ids.add(id)
			}
		})
		ids.forEach(func(id int) { rel.Objects = append(rel.Objects, r.s.objs[id]) })
		out = append(out, rel)
	}
	return out
}

// A Release is one release event: the roots it ends the lifecycle of.
type Release struct {
	// Pos is the releasing call.
	Pos token.Pos
	// Objects are the released roots.
	Objects []*Object
}
