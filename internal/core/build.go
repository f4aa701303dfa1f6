package core

import (
	"math"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// BuildTree is the CFP build's second pass (§2.1, §3): it ranks the
// items of src's first-pass counts at minSup and inserts every
// transaction of src, recoded, into a new CFP-tree on arena a. When no
// item is frequent it returns a nil tree without scanning src.
//
// The scan polls ctl once per transaction and probes the growing
// tree's extent against ctl's byte budget every 1024 transactions.
// rec receives the pass2-build span and the finished tree's node
// counters; inside that span track is charged the tree's extent, a
// charge the caller releases. ctl, track and rec may each be nil.
func BuildTree(src dataset.Source, counts dataset.Counts, minSup uint64, cfg Config, a *arena.Arena, ctl *mine.Control, track mine.MemTracker, rec *obs.Recorder) (*Tree, error) {
	rc := dataset.NewRecoder(counts, minSup)
	n := rc.NumFrequent()
	if debugChecks {
		assertf(n <= math.MaxUint32, "core: frequent item count %d overflows rank space", n)
	}
	if n == 0 {
		return nil, nil
	}
	tree := NewTree(a, cfg, rc.Items(), rc.Supports())
	tree.Observe(rec)
	var buf []uint32
	var txn int
	sp := rec.Start(obs.PhaseBuild)
	err := src.Scan(func(tx []uint32) error {
		if err := ctl.Err(); err != nil {
			return err
		}
		buf = rc.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
		// Probe the growing tree against the byte budget so a runaway
		// build is stopped long before its one-shot charge below.
		if txn++; txn&1023 == 0 {
			ctl.Probe(tree.Extent())
		}
		return nil
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	foldTreeCounters(rec, tree)
	// Charged inside the span: pass2-build's bytes_delta is the
	// initial CFP-tree footprint.
	if track != nil {
		track.Alloc(tree.Extent())
	}
	sp.End()
	return tree, nil
}

// foldTreeCounters folds a finished tree's composition into the run
// counters before it is converted and recycled; four atomic adds.
func foldTreeCounters(rec *obs.Recorder, t *Tree) {
	if rec == nil {
		return
	}
	std, chains, embedded := t.PhysNodes()
	rec.Add(obs.CtrStdNodes, int64(std))
	rec.Add(obs.CtrChainNodes, int64(chains))
	rec.Add(obs.CtrEmbeddedLeaves, int64(embedded))
	rec.Add(obs.CtrLogicalNodes, int64(t.NumNodes()))
}

// Insert adds a transaction given as strictly increasing item ranks
// with multiplicity weight. Per the CFP-tree's partial-count semantics
// (§3.2), only the pcount of the path's final node is increased.
func (t *Tree) Insert(ranks []uint32, weight uint32) {
	if len(ranks) == 0 {
		return
	}
	t.numTx += uint64(weight)
	pos := 0
	parentRank := int64(-1)
	ref := rootRef      // slot currently under examination
	ownerRef := rootRef // slot holding the pointer to ref.owner
	for {
		sv := t.getSlot(ref)
		switch sv.kind {
		case slotNone:
			v := t.buildPath(ranks[pos:], parentRank, weight)
			t.setSlot(ref, v, ownerRef)
			return

		case slotEmbed:
			rank := parentRank + int64(sv.eDelta)
			target := int64(ranks[pos])
			if target == rank {
				if pos == len(ranks)-1 {
					// Transaction ends at the embedded leaf.
					np := sv.ePcount + weight
					if np <= embedMaxPcount && !t.cfg.DisableEmbed {
						t.setSlot(ref, embedSlot(sv.eDelta, np), ownerRef)
					} else {
						off := t.allocStd(stdNode{delta: sv.eDelta, pcount: np})
						t.numEmbedded--
						t.numStd++
						t.setSlot(ref, ptrSlot(off), ownerRef)
					}
					return
				}
				// Matched but the transaction continues: promote the
				// leaf to a standard node with the rest as its child.
				child := t.buildPath(ranks[pos+1:], rank, weight)
				off := t.allocStd(stdNode{delta: sv.eDelta, pcount: sv.ePcount, suffix: child})
				t.numEmbedded--
				t.numStd++
				t.setSlot(ref, ptrSlot(off), ownerRef)
				return
			}
			// BST divergence at the embedded leaf: promote it and
			// attach the new branch as its BST child.
			sib := t.buildPath(ranks[pos:], parentRank, weight)
			n := stdNode{delta: sv.eDelta, pcount: sv.ePcount}
			if target < rank {
				n.left = sib
			} else {
				n.right = sib
			}
			off := t.allocStd(n)
			t.numEmbedded--
			t.numStd++
			t.setSlot(ref, ptrSlot(off), ownerRef)
			return

		default: // slotPtr
			b := t.nodeBytes(sv.ptr)
			if isChain(b[0]) {
				if t.descendChain(sv.ptr, &pos, &parentRank, &ref, &ownerRef, ranks, weight) {
					return
				}
				continue
			}
			// Fast path: the mask byte and Δitem bytes are enough to
			// steer BST descent; the node is only fully decoded when
			// its pcount must change.
			delta := encoding.Suppressed32(b[1:], int(b[0]>>6))
			rank := parentRank + int64(delta)
			target := int64(ranks[pos])
			switch {
			case target == rank:
				if pos == len(ranks)-1 {
					n, size := decodeStd(b)
					n.pcount += weight
					t.replaceStd(sv.ptr, size, n, ref)
					return
				}
				pos++
				parentRank = rank
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 2}
			case target < rank:
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 0}
			default:
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 1}
			}
		}
	}
}

// descendChain advances an insertion through the chain node at off.
// It returns true when the insertion completed inside the chain, or
// false when descent continues past the chain's tail suffix (pos,
// parentRank, ref and ownerRef are updated accordingly).
func (t *Tree) descendChain(off uint64, pos *int, parentRank *int64, ref, ownerRef *slotRef, ranks []uint32, weight uint32) bool {
	b := t.nodeBytes(off)
	c, size := decodeChain(b)
	// c.deltas aliases arena memory; copy before any allocation.
	deltas := append([]byte(nil), c.deltas...)
	c.deltas = deltas
	L := len(deltas)
	j := 0
	pr := *parentRank
	for j < L && *pos < len(ranks) && int64(ranks[*pos]) == pr+int64(deltas[j]) {
		pr += int64(deltas[j])
		j++
		*pos++
	}
	switch {
	case j == L && *pos == len(ranks):
		// The transaction ends exactly at the chain's last element.
		c.pcount += weight
		t.replaceChain(off, size, c, *ref)
		return true
	case j == L:
		// Consumed the whole chain; continue below its tail.
		*parentRank = pr
		*ownerRef = *ref
		*ref = slotRef{owner: off, which: 2}
		return false
	case *pos == len(ranks):
		// The transaction ends mid-chain, at element j-1 (j ≥ 1: we
		// only arrive at a slot with at least one rank left, so at
		// least one element matched).
		t.splitChainEnd(off, size, c, j, weight, *ref, *ownerRef)
		return true
	default:
		// Divergence at element j: it needs a BST sibling, which only
		// standard nodes support.
		t.splitChainDiverge(off, size, c, j, pr, ranks[*pos:], weight, *ref, *ownerRef)
		return true
	}
}

// splitChainEnd handles a transaction that ends at chain element j-1
// (0 < j < len): the chain splits into a head carrying the new pcount
// and a tail preserving the original pcount and suffix.
func (t *Tree) splitChainEnd(off uint64, size int, c chainNode, j int, weight uint32, ref, ownerRef slotRef) {
	t.rec.Add(obs.CtrChainSplits, 1)
	t.freeNode(off, size)
	t.numChains--
	tail := t.makePiece(c.deltas[j:], c.pcount, c.suffix)
	head := t.makePiece(c.deltas[:j], weight, tail)
	t.setSlot(ref, head, ownerRef)
}

// splitChainDiverge handles a transaction that diverges from the chain
// at element j (whose parent has rank pr): element j becomes a standard
// node holding the new branch as a BST child; elements before and after
// become separate pieces.
func (t *Tree) splitChainDiverge(off uint64, size int, c chainNode, j int, pr int64, rest []uint32, weight uint32, ref, ownerRef slotRef) {
	t.rec.Add(obs.CtrChainSplits, 1)
	t.freeNode(off, size)
	t.numChains--
	L := len(c.deltas)
	elem := stdNode{delta: uint32(c.deltas[j])}
	if j == L-1 {
		elem.pcount = c.pcount
		elem.suffix = c.suffix
	} else {
		elem.suffix = t.makePiece(c.deltas[j+1:], c.pcount, c.suffix)
	}
	branch := t.buildPath(rest, pr, weight)
	if int64(rest[0]) < pr+int64(elem.delta) {
		elem.left = branch
	} else {
		elem.right = branch
	}
	t.numStd++
	elemSlot := ptrSlot(t.allocStd(elem))
	head := elemSlot
	if j > 0 {
		head = t.makePiece(c.deltas[:j], 0, elemSlot)
	}
	t.setSlot(ref, head, ownerRef)
}

// makePiece materializes a run of chain elements (each Δitem a single
// byte) whose last element carries pcount and suffix. Runs of length 1
// become embedded leaves or standard nodes; longer runs stay chains.
func (t *Tree) makePiece(deltas []byte, pcount uint32, suffix slotVal) slotVal {
	if len(deltas) == 0 {
		panic("core: empty chain piece")
	}
	if len(deltas) == 1 {
		if suffix.kind == slotNone && pcount <= embedMaxPcount && !t.cfg.DisableEmbed {
			t.numEmbedded++
			return embedSlot(uint32(deltas[0]), pcount)
		}
		t.numStd++
		return ptrSlot(t.allocStd(stdNode{delta: uint32(deltas[0]), pcount: pcount, suffix: suffix}))
	}
	t.numChains++
	cp := append([]byte(nil), deltas...)
	return ptrSlot(t.allocChain(chainNode{deltas: cp, pcount: pcount, suffix: suffix}))
}

// buildPath materializes a brand-new path for ranks (strictly
// increasing, non-empty) under a parent of rank parentRank, with the
// final node receiving pcount weight. Consecutive elements whose Δitem
// fits a byte coalesce into chain nodes of at most maxChain elements
// (§3.3: chains are only built when a new leaf is inserted).
func (t *Tree) buildPath(ranks []uint32, parentRank int64, weight uint32) slotVal {
	t.numNodes += len(ranks)
	return t.buildSeg(ranks, parentRank, weight)
}

func (t *Tree) buildSeg(ranks []uint32, parentRank int64, weight uint32) slotVal {
	d0 := int64(ranks[0]) - parentRank
	if debugChecks {
		assertf(d0 >= 1 && d0 <= math.MaxUint32, "core: Δitem out of range in buildSeg (parent %d)", parentRank)
	}
	if len(ranks) == 1 {
		if d0 <= embedMaxDelta && weight <= embedMaxPcount && !t.cfg.DisableEmbed {
			t.numEmbedded++
			return embedSlot(uint32(d0), weight)
		}
		t.numStd++
		return ptrSlot(t.allocStd(stdNode{delta: uint32(d0), pcount: weight}))
	}
	if !t.cfg.DisableChains && d0 <= embedMaxDelta {
		// Extend the run while deltas stay single-byte.
		maxChain := t.cfg.maxChain()
		L := 1
		for L < len(ranks) && L < maxChain &&
			int64(ranks[L])-int64(ranks[L-1]) <= embedMaxDelta {
			L++
		}
		if L >= 2 {
			deltas := make([]byte, L)
			prev := parentRank
			for i := 0; i < L; i++ {
				deltas[i] = byte(int64(ranks[i]) - prev)
				prev = int64(ranks[i])
			}
			var tailPcount uint32
			var suffix slotVal
			if L == len(ranks) {
				tailPcount = weight
			} else {
				suffix = t.buildSeg(ranks[L:], int64(ranks[L-1]), weight)
			}
			t.numChains++
			return ptrSlot(t.allocChain(chainNode{deltas: deltas, pcount: tailPcount, suffix: suffix}))
		}
	}
	t.numStd++
	suffix := t.buildSeg(ranks[1:], int64(ranks[0]), weight)
	return ptrSlot(t.allocStd(stdNode{delta: uint32(d0), pcount: 0, suffix: suffix}))
}
