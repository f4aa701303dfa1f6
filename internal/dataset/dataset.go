// Package dataset provides transaction databases in the standard FIMI
// text format (one transaction per line, space-separated item
// identifiers), the two-pass access pattern required by prefix-tree
// miners, asynchronous double-buffered file input (§4.1), and the
// frequency recoding of items used when building FP-trees.
package dataset

import (
	"errors"
	"fmt"
	"sort"
)

// Item is an item identifier as it appears in the input data.
type Item = uint32

// Source is a transaction database that can be scanned multiple times.
// Building a prefix tree takes two scans: one to count item supports
// and one to insert the transactions. Callers may add scans of their
// own, e.g. to learn the database size before a relative threshold
// can be resolved.
type Source interface {
	// Scan invokes fn once per transaction, in database order. The
	// slice passed to fn is only valid for the duration of the call.
	Scan(fn func(tx []Item) error) error
}

// Slice is an in-memory Source.
type Slice [][]Item

// Scan implements Source.
func (s Slice) Scan(fn func(tx []Item) error) error {
	for _, tx := range s {
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// Counts holds the result of the first database pass.
type Counts struct {
	Support map[Item]uint64 // item -> number of transactions containing it
	NumTx   uint64          // total number of transactions
}

// ModelBytes returns the modeled footprint of the first-pass count
// table: one (item, count) entry of 12 bytes — a 4-byte identifier and
// an 8-byte count — per distinct item, the same C-layout modeling used
// for the CFP structures (mine.MemTracker's convention).
func (c Counts) ModelBytes() int64 { return int64(len(c.Support)) * 12 }

// CountItems performs the first pass over the database: it counts, for
// each distinct item, the number of transactions that contain it.
// Duplicate occurrences of an item within one transaction are counted
// once, matching the set semantics of the mining problem.
func CountItems(src Source) (Counts, error) {
	c := Counts{Support: make(map[Item]uint64)}
	seen := make(map[Item]struct{}, 64)
	err := src.Scan(func(tx []Item) error {
		c.NumTx++
		if len(tx) == 0 {
			return nil
		}
		clear(seen)
		for _, it := range tx {
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			c.Support[it]++
		}
		return nil
	})
	if err != nil {
		return Counts{}, err
	}
	return c, nil
}

// Recoder maps original item identifiers to dense ranks in descending
// order of support (rank 0 = most frequent item), drops infrequent
// items, and sorts transactions into FP-tree insertion order. All
// prefix-tree miners in this repository operate on ranks; results are
// translated back with Decode.
type Recoder struct {
	rank    map[Item]uint32
	orig    []Item
	support []uint64
	numTx   uint64
	minSup  uint64
}

// NewRecoder builds a Recoder from first-pass counts and the minimum
// support threshold ξ (absolute count). Items with support < minSupport
// are infrequent and dropped. Ties in support break by ascending
// original identifier so the recoding is deterministic.
func NewRecoder(c Counts, minSupport uint64) *Recoder {
	if minSupport == 0 {
		minSupport = 1
	}
	r := &Recoder{
		rank:   make(map[Item]uint32),
		numTx:  c.NumTx,
		minSup: minSupport,
	}
	for it, sup := range c.Support {
		if sup >= minSupport {
			r.orig = append(r.orig, it)
		}
	}
	sort.Slice(r.orig, func(i, j int) bool {
		si, sj := c.Support[r.orig[i]], c.Support[r.orig[j]]
		if si != sj {
			return si > sj
		}
		return r.orig[i] < r.orig[j]
	})
	r.support = make([]uint64, len(r.orig))
	for rk, it := range r.orig {
		r.rank[it] = uint32(rk)
		r.support[rk] = c.Support[it]
	}
	return r
}

// NumFrequent returns the number of frequent items.
func (r *Recoder) NumFrequent() int { return len(r.orig) }

// NumTx returns the number of transactions counted in the first pass.
func (r *Recoder) NumTx() uint64 { return r.numTx }

// MinSupport returns the absolute minimum support threshold.
func (r *Recoder) MinSupport() uint64 { return r.minSup }

// Support returns the support of the item with the given rank.
func (r *Recoder) Support(rank uint32) uint64 { return r.support[rank] }

// Decode maps a rank back to the original item identifier.
func (r *Recoder) Decode(rank uint32) Item { return r.orig[rank] }

// Items returns the rank → original identifier table. It is shared,
// not copied: callers must not write to it.
func (r *Recoder) Items() []Item { return r.orig[:len(r.orig):len(r.orig)] }

// Supports returns the rank → support table. It is shared, not
// copied: callers must not write to it.
func (r *Recoder) Supports() []uint64 { return r.support }

// DecodeSet maps a rank itemset back to original identifiers, sorted
// ascending.
func (r *Recoder) DecodeSet(ranks []uint32) []Item {
	out := make([]Item, len(ranks))
	for i, rk := range ranks {
		out[i] = r.orig[rk]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Encode filters tx down to its frequent items, maps them to ranks,
// removes duplicates, and sorts ascending by rank (descending support),
// which is FP-tree insertion order. The result is appended to buf and
// returned, so callers can reuse a scratch buffer across transactions.
func (r *Recoder) Encode(tx []Item, buf []uint32) []uint32 {
	out := buf[:0]
	for _, it := range tx {
		if rk, ok := r.rank[it]; ok {
			out = append(out, rk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Deduplicate in place (set semantics).
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// AbsoluteSupport converts a relative minimum support (fraction of
// transactions, e.g. 0.01 for 1%) into an absolute count, rounding up
// and clamping to at least 1.
func AbsoluteSupport(rel float64, numTx uint64) uint64 {
	if rel <= 0 {
		return 1
	}
	s := uint64(rel * float64(numTx))
	if float64(s) < rel*float64(numTx) {
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}

// Validate checks structural invariants of an in-memory database and is
// used by tests and tools: no zero-length allocation anomalies, items
// fit in 32 bits (guaranteed by the type), and reports basic shape.
func Validate(db Slice) (numTx int, distinct int, avgLen float64, err error) {
	items := make(map[Item]struct{})
	total := 0
	for i, tx := range db {
		if tx == nil {
			return 0, 0, 0, fmt.Errorf("dataset: transaction %d is nil", i)
		}
		total += len(tx)
		for _, it := range tx {
			items[it] = struct{}{}
		}
	}
	if len(db) == 0 {
		return 0, 0, 0, errors.New("dataset: empty database")
	}
	return len(db), len(items), float64(total) / float64(len(db)), nil
}
