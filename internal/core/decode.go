package core

import (
	"math"
	"math/bits"

	"cfpgrowth/internal/encoding"
)

// This file implements batch decoding of CFP-array triple runs. The
// mining recursion walks ancestor paths constantly (two passes per
// conditional pattern base), and the byte-at-a-time ScanItem/PathTo
// traversal re-decodes the same parent triples once per descendant per
// pass — profiling shows the varint decoder dominating the whole mine
// phase. Batch decoding expands every per-item triple run into a flat
// array exactly once per CFP-array, in one sequential varint sweep per
// subarray, and resolves parent positions to element indexes; after
// that, a path walk is an index chase through a dense array instead of
// a varint chase through the byte region. This is the flat-array
// mining layout of Grahne–Zhu's FPgrowth*, grafted onto the paper's
// compressed array: the array stays the compact, serializable artifact
// and the decode is transient scratch, charged to the run's modeled
// memory while it is live.
//
// The chase array's byte size is the whole game: ancestor walks are
// random accesses, so every extra byte per element is paid in cache
// and TLB misses on every step (a naive 16-byte struct layout walked
// ~5x slower than the packed form on the quest benchmarks — slower
// even than re-decoding varints from the ~4x-smaller byte region).
// Each element therefore packs its two walk fields into one machine
// word — parent index and item rank — and nothing else stays resident:
// supports are read only by the owning run, in storage order, so the
// walkers take them from a sequential cursor over the run's own triples
// (runCounts), and the byte-offset → element-index map that parent
// resolution needs is a bitmap index (startIndex) that lives only while
// From runs.

// smallRoot and wideRoot are the packed parent-index sentinels marking
// an element that hangs off the virtual root, one per walk layout.
const (
	smallRoot = 1<<24 - 1
	wideRoot  = 1<<32 - 1
)

// Decode is a reusable flat decoding of one CFP-array: all triple runs
// expanded into dense walk words, in storage order (subarrays
// ascending by rank, elements in subarray order, so parents always
// precede children). The zero value is ready; From fills it, reusing
// the buffers of any previous decoding.
//
// Ownership rules (DESIGN.md §5d): a Decode is written only by From
// and is immutable until the next From; concurrent readers (parallel
// mine workers sharing the top-level decode) are safe. Each recursion
// level of the miner owns a private Decode from a per-grower free
// list, so a level's buffer is never touched by its subproblems.
type Decode struct {
	// wide selects the walk layout. Small (the common case): walk[i] =
	// parent<<8 | rank, 4 bytes per element, for arrays under 2^24-1
	// elements over at most 256 items. Wide: walkW[i] = parent<<32 |
	// rank, 8 bytes per element, for anything larger (up to the 2^31-1
	// flat index space). The unused layout's slice is kept empty.
	wide  bool
	walk  []uint32
	walkW []uint64
	// start[rk] is the index of rank rk's first element; len
	// NumItems+1, mirroring Array.starts.
	start []int32
}

// NumElems returns the number of decoded elements.
func (d *Decode) NumElems() int { return len(d.walk) + len(d.walkW) }

// Run returns the element index range [lo, hi) of rank rk's subarray.
func (d *Decode) Run(rk uint32) (lo, hi int32) {
	return d.start[rk], d.start[rk+1]
}

// Bytes returns the modeled footprint of the decoding: the walk words
// and the start table. Charged against the run's memory ledger while
// the decode is live.
func (d *Decode) Bytes() int64 {
	per := int64(4)
	if d.wide {
		per = 8
	}
	return int64(d.NumElems())*per + int64(len(d.start))*4
}

// From fills d with the flat decoding of a, reusing d's buffers, and
// resolves parents through a start index of its own; the miners use
// from with a reused index instead. It reports false — leaving d
// unusable — when the array exceeds the flat index space (more than
// 2^31-1 elements, more than 4 GiB of triple bytes, or an element
// count past 32 bits); callers fall back to the byte-chasing
// traversal.
func (d *Decode) From(a *Array) bool {
	var si startIndex
	return d.from(a, &si)
}

// from is From with a caller-owned start index, which it overwrites;
// the index is dead once from returns. Triples are validated at their
// trust boundaries (Convert, ReadArray), so the sweep runs unchecked
// like Array.decode; debugchecks builds re-assert the invariants.
//
//cfplint:hot
func (d *Decode) from(a *Array, si *startIndex) bool {
	n := a.NumNodes()
	numItems := a.NumItems()
	if n > math.MaxInt32 || a.DataBytes() > math.MaxUint32 {
		return false
	}
	// Ranks are stored as uint32; a rank count past 32 bits cannot
	// occur, but the explicit bound is what proves the rank packing
	// below.
	if numItems > math.MaxUint32 {
		return false
	}
	d.wide = n >= smallRoot || numItems > 256
	if d.wide {
		if cap(d.walkW) < n {
			d.walkW = make([]uint64, n)
		}
		d.walkW = d.walkW[:n]
		d.walk = d.walk[:0]
	} else {
		if cap(d.walk) < n {
			d.walk = make([]uint32, n)
		}
		d.walk = d.walk[:n]
		d.walkW = d.walkW[:0]
	}
	if cap(d.start) < numItems+1 {
		d.start = make([]int32, numItems+1)
	}
	d.start = d.start[:numItems+1]
	si.reset(a.DataBytes())
	idx := int32(0)
	for rk := 0; rk < numItems; rk++ {
		d.start[rk] = idx
		base := a.starts[rk]
		b := a.data[base:a.starts[rk+1]]
		pos := 0
		for pos < len(b) {
			delta, n1 := encoding.Uvarint(b[pos:])
			if debugChecks {
				assertf(n1 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
				assertf(delta >= 1, "core: zero Δitem at rank %d offset %d", rk, pos)
			}
			z, n2 := encoding.Uvarint(b[pos+n1:])
			if debugChecks {
				assertf(n2 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			}
			c, n3 := encoding.Uvarint(b[pos+n1+n2:])
			if debugChecks {
				assertf(n3 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
				assertf(c > 0, "core: zero count at rank %d offset %d", rk, pos)
			}
			if c > math.MaxUint32 {
				return false
			}
			si.mark(base+uint64(pos), idx)
			parent := int32(-1)
			if delta <= uint64(rk) {
				pr := uint32(rk) - uint32(delta)
				pl := int64(pos) - encoding.Unzigzag(z)
				if debugChecks {
					assertf(pr < uint32(rk), "core: parent rank out of range at rank %d offset %d", rk, pos)
					assertf(pl >= 0 && pl <= math.MaxUint32, "core: parent local offset out of range at rank %d offset %d", rk, pos)
				}
				pg := a.starts[pr] + uint64(pl)
				if debugChecks {
					assertf(pg < a.starts[pr+1], "core: parent local offset out of range at rank %d offset %d", rk, pos)
				}
				parent = si.index(pg)
				if debugChecks {
					assertf(si.isStart(pg), "core: unresolved parent (rank %d local %d) of rank %d offset %d", pr, pl, rk, pos)
				}
			}
			if d.wide {
				p := uint64(wideRoot)
				if parent >= 0 {
					p = uint64(parent)
				}
				d.walkW[idx] = p<<32 | uint64(rk)
			} else {
				p := uint32(smallRoot)
				if parent >= 0 {
					p = uint32(parent)
				}
				d.walk[idx] = p<<8 | uint32(rk)
			}
			idx++
			pos += n1 + n2 + n3
		}
	}
	d.start[numItems] = idx
	return true
}

// startIndex is From's parent resolver: one bit per byte of the
// array's triple region, set at every element start, plus the number
// of elements starting before each 64-bit word. Elements are numbered
// in storage order, which is byte order, so a parent's global byte
// offset resolves to its element index with one popcount, at 0.1875
// bytes per triple byte. The miners keep one per grower for reuse
// (From never nests) and charge it to the ledger only while From
// holds it.
type startIndex struct {
	bits   []uint64
	before []int32
	// filled is the number of leading before entries already set.
	filled uint64
}

// startIndexBytes is the modeled footprint of a start index over
// dataBytes bytes of triples: 8 bytes of bitmap plus a 4-byte count
// per 64-byte word.
func startIndexBytes(dataBytes int64) int64 {
	return (dataBytes + 63) / 64 * 12
}

// reset sizes si for dataBytes bytes of triples and clears it.
func (si *startIndex) reset(dataBytes int64) {
	words := (dataBytes + 63) / 64
	if int64(cap(si.bits)) < words {
		si.bits = make([]uint64, words)
		si.before = make([]int32, words)
	}
	si.bits = si.bits[:words]
	si.before = si.before[:words]
	clear(si.bits)
	si.filled = 0
}

// mark records that element idx starts at global byte offset g.
// Elements must be marked in increasing offset order: the count
// before every word up to g's is final once idx is known.
//
//cfplint:hot
func (si *startIndex) mark(g uint64, idx int32) {
	w := g >> 6
	f := si.filled
	for f <= w {
		si.before[f] = idx
		f++
	}
	si.filled = f
	si.bits[w] |= 1 << (g & 63)
}

// index returns the element index of the element starting at global
// byte offset g, which must already be marked.
//
//cfplint:hot
func (si *startIndex) index(g uint64) int32 {
	w := g >> 6
	below := si.bits[w] & (1<<(g&63) - 1)
	return si.before[w] + int32(bits.OnesCount64(below)&127)
}

// isStart reports whether an element starts at global byte offset g.
func (si *startIndex) isStart(g uint64) bool {
	return si.bits[g>>6]>>(g&63)&1 == 1
}

// runCounts is a sequential cursor over one rank's triple run that
// yields each element's count in storage order — the order in which
// the walkers hand elements to lanes — so the flat decoding never
// holds supports.
type runCounts struct {
	b   []byte
	pos int
}

// runCounts returns a count cursor at the start of rank rk's run.
func (a *Array) runCounts(rk uint32) runCounts {
	return runCounts{b: a.data[a.starts[rk]:a.starts[rk+1]]}
}

// next skips the next element's Δitem and Δpos and returns its count.
// Callers hold a flat decoding of the array, and From rejects counts
// past 32 bits, so the count fits; debugchecks builds re-assert the
// triple's shape.
//
//cfplint:hot
func (c *runCounts) next() uint32 {
	b := c.b[c.pos:]
	n1 := encoding.SkipUvarint(b)
	if debugChecks {
		assertf(n1 > 0, "core: truncated CFP-array triple at offset %d", c.pos)
	}
	n2 := encoding.SkipUvarint(b[n1:])
	if debugChecks {
		assertf(n2 > 0, "core: truncated CFP-array triple at offset %d", c.pos)
	}
	v, n3 := encoding.Uvarint(b[n1+n2:])
	if debugChecks {
		assertf(n3 > 0, "core: truncated CFP-array triple at offset %d", c.pos)
		assertf(v > 0 && v <= math.MaxUint32, "core: count out of range at offset %d", c.pos)
	}
	c.pos += n1 + n2 + n3
	return uint32(v & math.MaxUint32)
}

// AppendRun batch-decodes rank rk's whole triple run into buf in one
// sequential varint sweep and returns the extended slice. It yields
// the same elements as ScanItem, without the per-element callback and
// per-field decoder re-entry; point queries (SupportOf) that scan a
// single subarray use it in place of a full Decode.
//
//cfplint:hot
func (a *Array) AppendRun(rk uint32, buf []Element) []Element {
	lo, hi := a.starts[rk], a.starts[rk+1]
	if need := len(buf) + a.nodes[rk]; cap(buf) < need {
		nb := make([]Element, len(buf), need)
		copy(nb, buf)
		buf = nb
	}
	b := a.data[lo:hi]
	pos := 0
	for pos < len(b) {
		d, n1 := encoding.Uvarint(b[pos:])
		if debugChecks {
			assertf(n1 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d offset %d", rk, pos)
		}
		z, n2 := encoding.Uvarint(b[pos+n1:])
		if debugChecks {
			assertf(n2 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
		}
		c, n3 := encoding.Uvarint(b[pos+n1+n2:])
		if debugChecks {
			assertf(n3 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			assertf(c > 0, "core: zero count at rank %d offset %d", rk, pos)
		}
		buf = append(buf, Element{
			Rank:  rk,
			Local: uint64(pos),
			Delta: uint32(d),
			Dpos:  encoding.Unzigzag(z),
			Count: c,
		})
		pos += n1 + n2 + n3
	}
	return buf
}
