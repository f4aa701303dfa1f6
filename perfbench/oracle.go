package main

import (
	"errors"
	"fmt"
	"math/bits"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
)

// resultSum is an order-independent fingerprint of a mining result:
// the itemset count and the wrapping sum of one 64-bit hash per
// (itemset, support) pair. Emission order (nondeterministic under
// Parallel) does not change it; a missing, extra or mis-counted
// itemset does.
type resultSum struct {
	N   uint64
	Sum uint64
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// itemsetHash hashes an itemset whose items are sorted ascending, as
// every miner emits them.
func itemsetHash(items []uint32, support uint64) uint64 {
	h := mix64(support ^ 0x9e3779b97f4a7c15)
	for _, it := range items {
		h = mix64(h ^ uint64(it))
	}
	return mix64(h ^ uint64(len(items)))
}

func (s *resultSum) add(items []uint32, support uint64) {
	s.N++
	s.Sum += itemsetHash(items, support)
}

// handler returns a cfpgrowth.Handler-shaped function feeding s.
func (s *resultSum) handler() func([]uint32, uint64) error {
	return func(items []uint32, support uint64) error {
		s.add(items, support)
		return nil
	}
}

// checkResult compares a mining result against the oracle's.
func checkResult(got, want resultSum) error {
	if got != want {
		return fmt.Errorf("result mismatch: %d itemsets (checksum %016x), want %d (checksum %016x)",
			got.N, got.Sum, want.N, want.Sum)
	}
	return nil
}

// checkSupport compares one point-query answer against the oracle's.
func checkSupport(items []uint32, got, want uint64) error {
	if got != want {
		return fmt.Errorf("SupportOf(%v) = %d, want %d", items, got, want)
	}
	return nil
}

// oracle answers support queries by vertical bitmaps: one bit per
// transaction for every item at or above the index base support. It
// shares no code with the miners it checks.
type oracle struct {
	words   int
	bits    map[uint32][]uint64
	support map[uint32]uint64 // every item that occurs, by its own count
	scratch []uint64
}

func newOracle(db dataset.Slice, base uint64) *oracle {
	o := &oracle{
		words:   (len(db) + 63) / 64,
		bits:    make(map[uint32][]uint64),
		support: make(map[uint32]uint64),
	}
	// Count each item once per transaction (set semantics).
	last := make(map[uint32]int)
	for t, tx := range db {
		for _, it := range tx {
			if l, seen := last[it]; !seen || l != t {
				last[it] = t
				o.support[it]++
			}
		}
	}
	for it, s := range o.support {
		if s >= base {
			o.bits[it] = make([]uint64, o.words)
		}
	}
	for t, tx := range db {
		for _, it := range tx {
			if b, ok := o.bits[it]; ok {
				b[t/64] |= 1 << (t % 64)
			}
		}
	}
	o.scratch = make([]uint64, o.words)
	return o
}

// indexed reports whether the item has a bitmap (support ≥ base).
func (o *oracle) indexed(it uint32) bool {
	_, ok := o.bits[it]
	return ok
}

// count returns the support of items, all of which must be indexed
// and distinct.
func (o *oracle) count(items []uint32) uint64 {
	acc := o.scratch
	copy(acc, o.bits[items[0]])
	for _, it := range items[1:] {
		b := o.bits[it]
		for i := range acc {
			acc[i] &= b[i]
		}
	}
	var n int
	for _, w := range acc {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// expectSupport is the answer Index.SupportOf must give: the exact
// support when every item is indexed, and 0 when any item lies below
// the base support (the index's reject path).
func (o *oracle) expectSupport(items []uint32) uint64 {
	for _, it := range items {
		if !o.indexed(it) {
			return 0
		}
	}
	return o.count(items)
}

// recount verifies every itemset of a mining result against the
// bitmaps (soundness: each reported support is the true one).
func (o *oracle) recount(sets []itemset) error {
	for _, s := range sets {
		for _, it := range s.items {
			if !o.indexed(it) {
				return fmt.Errorf("itemset %v holds item %d below the base support", s.items, it)
			}
		}
		if got := o.count(s.items); got != s.support {
			return fmt.Errorf("itemset %v reported with support %d, true support %d", s.items, s.support, got)
		}
	}
	return nil
}

type itemset struct {
	items   []uint32
	support uint64
}

// collector materializes a mining result and its fingerprint.
type collector struct {
	sets []itemset
	sum  resultSum
}

func (c *collector) handler() func([]uint32, uint64) error {
	return func(items []uint32, support uint64) error {
		c.sets = append(c.sets, itemset{items: append([]uint32(nil), items...), support: support})
		c.sum.add(items, support)
		return nil
	}
}

// referenceSums runs the FP-growth reference miner once at minSup and
// fingerprints its result at minSup and at remineSup (≥ minSup).
func referenceSums(db dataset.Slice, minSup, remineSup uint64) (atMine, atRemine resultSum, err error) {
	sink := &splitSink{cut: remineSup}
	if err := (fptree.Growth{}).Mine(db, minSup, sink); err != nil {
		return resultSum{}, resultSum{}, fmt.Errorf("reference FP-growth: %w", err)
	}
	return sink.all, sink.above, nil
}

type splitSink struct {
	cut        uint64
	all, above resultSum
}

func (s *splitSink) Emit(items []uint32, support uint64) error {
	s.all.add(items, support)
	if support >= s.cut {
		s.above.add(items, support)
	}
	return nil
}

// selfTest plants one wrong answer of each kind the timed checks look
// for and fails unless every one is caught: a wrong itemset count, a
// wrong support inside a result, a wrong recounted support, and a
// wrong point-query answer.
func selfTest(o *oracle, sets []itemset, want resultSum, q []query) error {
	if len(sets) == 0 || len(q) == 0 {
		return errors.New("self-test: nothing to plant a fault in")
	}
	short := want
	short.N--
	short.Sum -= itemsetHash(sets[0].items, sets[0].support)
	if checkResult(short, want) == nil {
		return errors.New("self-test: a dropped itemset went unnoticed")
	}
	shifted := want
	shifted.Sum += itemsetHash(sets[0].items, sets[0].support+1) - itemsetHash(sets[0].items, sets[0].support)
	if checkResult(shifted, want) == nil {
		return errors.New("self-test: a wrong support inside a result went unnoticed")
	}
	planted := []itemset{{items: sets[0].items, support: sets[0].support + 1}}
	if o.recount(planted) == nil {
		return errors.New("self-test: a wrong support went unnoticed by the recount")
	}
	if checkSupport(q[0].items, q[0].want+1, q[0].want) == nil {
		return errors.New("self-test: a wrong SupportOf answer went unnoticed")
	}
	return nil
}
