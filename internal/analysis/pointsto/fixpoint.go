package pointsto

import (
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis/callgraph"
)

// solve iterates the constraint system to a fixpoint: copy-edge
// closure (one topological sweep over the Tarjan condensation per
// round), then load/store resolution against the current points-to
// sets, which may add edges and materialize phantom objects for the
// next round. Everything is monotone over a finite object space, so
// the loop terminates.
func (s *solver) solve() {
	for {
		s.propagate()
		changed := false
		for i := range s.loads {
			if s.applyLoad(&s.loads[i]) {
				changed = true
			}
		}
		for i := range s.stores {
			if s.applyStore(&s.stores[i]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.resolveRoots()
	s.computeEscapeFacts()
}

// propagate closes the points-to sets over the copy edges: cycles are
// collapsed to one shared set via callgraph.SCCInts, and the component
// list — emitted destinations-first — is walked backwards so every
// source component pushes into its destinations exactly once.
func (s *solver) propagate() {
	comps := callgraph.SCCInts(len(s.pts), func(v int) []int { return s.copyOut[v] })
	for i := len(comps) - 1; i >= 0; i-- {
		comp := comps[i]
		if len(comp) > 1 {
			var set bits
			for _, v := range comp {
				set.or(s.pts[v])
			}
			for _, v := range comp {
				s.pts[v] = set.clone()
			}
		}
		for _, v := range comp {
			for _, d := range s.copyOut[v] {
				s.pts[d].or(s.pts[v])
			}
		}
	}
}

// applyLoad resolves one load constraint: dst ⊇ fld(o, field) for
// every object o the base points at. Named-field loads also read the
// object's "*" cell (stores through interior pointers land there);
// "*" loads read every field. Opaque objects materialize phantom
// children so the load yields something to alias.
func (s *solver) applyLoad(l *access) bool {
	if l.base == nilNode || l.dst == nilNode {
		return false
	}
	changed := false
	s.pts[l.base].forEach(func(id int) {
		if s.objs[id].opaque {
			if s.ensurePhantom(id, l.field) {
				changed = true
			}
		}
		if l.field == "*" {
			for _, fn := range s.fieldsOf[id] {
				if s.addCopy(fn, l.dst) {
					changed = true
				}
			}
			if s.addCopy(s.fieldNodeFor(id, "*"), l.dst) {
				changed = true
			}
		} else {
			if s.addCopy(s.fieldNodeFor(id, l.field), l.dst) {
				changed = true
			}
			if s.addCopy(s.fieldNodeFor(id, "*"), l.dst) {
				changed = true
			}
		}
	})
	return changed
}

// applyStore resolves one store constraint: fld(o, field) ⊇ src for
// every object o the base points at. Stores of untracked values keep
// their site (frozenro) but add no flow.
func (s *solver) applyStore(st *access) bool {
	if st.base == nilNode || st.src == nilNode {
		return false
	}
	changed := false
	s.pts[st.base].forEach(func(id int) {
		if s.addCopy(st.src, s.fieldNodeFor(id, st.field)) {
			changed = true
		}
	})
	return changed
}

// ensurePhantom materializes the phantom child standing for one field
// of an opaque object, inheriting region, lifetime root, parameter
// slot, and global-ness. At maxPhantomDepth the object itself is used
// (self-alias), which collapses recursive structures.
func (s *solver) ensurePhantom(objID int, field string) bool {
	k := fieldKey{objID, field}
	if _, ok := s.phantomOf[k]; ok {
		return false
	}
	o := s.objs[objID]
	fn := s.fieldNodeFor(objID, field)
	if o.depth >= maxPhantomDepth {
		s.phantomOf[k] = objID
		return s.pts[fn].add(objID)
	}
	c := s.newObject("field "+field+" of "+o.Label, o.Region, o.Pos)
	c.Fn = o.Fn
	c.opaque = true
	c.depth = o.depth + 1
	c.ParamSlot = o.ParamSlot
	c.Global = o.Global
	c.parent = objID
	if o.Derived || o.Region&(Arena|Pool|Frozen|Ring) != 0 {
		c.Derived = true
	}
	s.phantomOf[k] = c.ID
	s.pts[fn].add(c.ID)
	return true
}

// resolveRoots computes each derived object's lifecycle roots: arena
// accessor results root at whatever their receiver pointed to, phantom
// children root at their region-carrying ancestor. Chains resolve by
// iteration (they are at most phantom-depth long).
func (s *solver) resolveRoots() {
	for changed := true; changed; {
		changed = false
		for _, o := range s.objs {
			if o.rootNode != nilNode {
				s.pts[o.rootNode].forEach(func(id int) {
					r := s.objs[id]
					if r.Derived {
						if o.roots.or(r.roots) {
							changed = true
						}
					} else if o.roots.add(id) {
						changed = true
					}
				})
			}
			if o.parent >= 0 {
				p := s.objs[o.parent]
				if p.Derived {
					if o.roots.or(p.roots) {
						changed = true
					}
				} else if p.Region&(Arena|Pool|Frozen|Ring) != 0 {
					if o.roots.add(p.ID) {
						changed = true
					}
				}
			}
		}
	}
}

// --- escape facts ---

// computeEscapeFacts runs the per-function retention and write-through
// fixpoint (callee masks feed caller masks, so the package iterates to
// stability like summary does over its SCCs) and then materializes
// EscCallee edges for consumer queries.
func (s *solver) computeEscapeFacts() {
	escsBy := map[*types.Func][]int{}
	for i, e := range s.escs {
		escsBy[e.fn] = append(escsBy[e.fn], i)
	}
	callsBy := map[*types.Func][]int{}
	for i, c := range s.calls {
		callsBy[c.fn] = append(callsBy[c.fn], i)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range s.declOrder {
			p, l := s.retentionMasks(fn, escsBy[fn], callsBy[fn])
			e := &Escapes{Params: p, Lasting: l, Writes: s.paramWrites(fn, callsBy[fn])}
			if cur := s.escMask[fn]; cur == nil || *cur != *e {
				s.escMask[fn] = e
				changed = true
			}
		}
	}
	for _, rec := range s.calls {
		em := s.escLookup(rec.callee)
		if em == nil {
			continue
		}
		for i, an := range rec.argNodes {
			if an == nilNode || i >= maxSlots {
				continue
			}
			if em.Lasting&(1<<i) != 0 {
				s.escs = append(s.escs, escEdge{node: an, kind: EscCallee, pos: rec.pos, fn: rec.fn})
			}
		}
	}
}

// escLookup resolves a callee's Escapes: the in-progress local mask
// for package functions, the imported fact otherwise.
func (s *solver) escLookup(fn *types.Func) *Escapes {
	if e, ok := s.escMask[fn]; ok {
		return e
	}
	var e Escapes
	if s.pass.ImportObjectFact(fn, &e) {
		return &e
	}
	return nil
}

// retentionMasks computes which parameter slots of fn may be retained
// beyond the call. Two sets are grown in parallel: `all` counts every
// retention route, `lasting` excludes goroutine captures when the
// function joins its spawns (sync.WaitGroup.Wait). Both close over the
// function's stores: a value stored into long-lived memory (globals,
// parameter-reachable objects, anything already retained) is retained
// too.
func (s *solver) retentionMasks(fn *types.Func, escIdx, callIdx []int) (uint32, uint32) {
	var all, lasting bits
	for _, i := range escIdx {
		e := s.escs[i]
		switch e.kind {
		case EscGlobal, EscSend:
			all.or(s.pts[e.node])
			lasting.or(s.pts[e.node])
		case EscSpawn:
			all.or(s.pts[e.node])
			if !s.joins[fn] {
				lasting.or(s.pts[e.node])
			}
		}
	}
	for _, i := range callIdx {
		rec := s.calls[i]
		em := s.escLookup(rec.callee)
		if em == nil {
			continue
		}
		for j, an := range rec.argNodes {
			if an == nilNode || j >= maxSlots {
				continue
			}
			if em.Params&(1<<j) != 0 {
				all.or(s.pts[an])
			}
			if em.Lasting&(1<<j) != 0 {
				lasting.or(s.pts[an])
			}
		}
	}
	longLived := func(b bits) bool {
		hit := false
		b.forEach(func(id int) {
			o := s.objs[id]
			if o.Global || o.ParamSlot >= 0 {
				hit = true
			}
		})
		return hit
	}
	for changed := true; changed; {
		changed = false
		for _, i := range s.storesBy[fn] {
			st := s.stores[i]
			if st.src == nilNode || st.base == nilNode {
				continue
			}
			base := s.pts[st.base]
			long := longLived(base)
			if (long || base.intersects(all)) && all.or(s.pts[st.src]) {
				changed = true
			}
			if (long || base.intersects(lasting)) && lasting.or(s.pts[st.src]) {
				changed = true
			}
		}
	}
	var pm, lm uint32
	for i, phID := range s.paramPh[fn] {
		if phID < 0 || i >= maxSlots {
			continue
		}
		if all.has(phID) {
			pm |= 1 << i
		}
		if lasting.has(phID) {
			lm |= 1 << i
		}
	}
	return pm, lm
}

// paramWrites computes which parameter slots of fn may be written
// through: a store site of fn (stores inside its function literals
// included) whose base may point at an object rooted at one of fn's
// parameters, or an argument passed to a callee slot whose Escapes
// fact says it writes. Aliases need no special case: `b := d.buf;
// b[0] = 1` stores through b, whose points-to set is d's phantom.
func (s *solver) paramWrites(fn *types.Func, callIdx []int) uint32 {
	var m uint32
	mark := func(b bits) {
		b.forEach(func(id int) {
			if o := s.objs[id]; o.Fn == fn && o.ParamSlot >= 0 && o.ParamSlot < maxSlots {
				m |= 1 << o.ParamSlot
			}
		})
	}
	for _, i := range s.storesBy[fn] {
		if st := s.stores[i]; st.pos != token.NoPos && st.base != nilNode {
			mark(s.pts[st.base])
		}
	}
	for _, i := range callIdx {
		rec := s.calls[i]
		em := s.escLookup(rec.callee)
		if em == nil || em.Writes == 0 {
			continue
		}
		for j, an := range rec.argNodes {
			if an != nilNode && j < maxSlots && em.Writes&(1<<j) != 0 {
				mark(s.pts[an])
			}
		}
	}
	return m
}

// factsFor derives the exported Points/Escapes facts of one function.
func (s *solver) factsFor(fn *types.Func) (*Points, *Escapes) {
	p := &Points{}
	for _, r := range s.retN[fn] {
		s.pts[r].forEach(func(id int) {
			o := s.objs[id]
			switch {
			case o.ParamSlot >= 0 && o.Fn == fn && o.ParamSlot < len(s.paramPh[fn]):
				if s.paramPh[fn][o.ParamSlot] == o.ID {
					p.ReturnsParams |= 1 << o.ParamSlot
				} else {
					p.ReturnsParamMem |= 1 << o.ParamSlot
				}
			case o.Global:
			default:
				p.Fresh |= o.Region
			}
		})
	}
	if s.freeze[fn] {
		p.Fresh |= Frozen
	}
	p.Fresh |= s.regionOf[fn]
	e := s.escMask[fn]
	if e == nil {
		e = &Escapes{}
	}
	return p, e
}

// --- queries shared by Result methods ---

// objects renders a bitset as the ordered object list.
func (s *solver) objects(set bits) []*Object {
	var out []*Object
	set.forEach(func(id int) { out = append(out, s.objs[id]) })
	return out
}

// fieldClosure grows set with everything reachable from its members
// through field cells (a retained object drags its pointees along).
func (s *solver) fieldClosure(set *bits) {
	for changed := true; changed; {
		changed = false
		set.forEach(func(id int) {
			for _, fn := range s.fieldsOf[id] {
				if set.or(s.pts[fn]) {
					changed = true
				}
			}
		})
	}
}
