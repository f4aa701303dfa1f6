package core

import (
	"math/rand"
	"testing"
)

// decodeTestArray builds a CFP-array over numItems ranks whose
// subarrays run to hundreds of bytes, so runs straddle the start
// index's 64-bit words and parents sit 64 or more bytes away from
// their children (multi-byte Δpos), and whose counts reach past 127
// (multi-byte count varints).
func decodeTestArray(numItems int, seed int64) *Array {
	rng := rand.New(rand.NewSource(seed))
	tree := newTestTree(Config{}, numItems)
	seen := make([]bool, numItems)
	var tx []uint32
	for i := 0; i < 600; i++ {
		clear(seen)
		tx = tx[:0]
		for j := 1 + rng.Intn(10); j > 0; j-- {
			// Skewed toward low ranks, so prefixes are shared and
			// the low-rank runs fan out into many children.
			rk := rng.Intn(1 + rng.Intn(numItems))
			if !seen[rk] {
				seen[rk] = true
				tx = append(tx, uint32(rk))
			}
		}
		sortRanks(tx)
		tree.Insert(tx, uint32(1+rng.Intn(300)))
	}
	return Convert(tree)
}

// decodedElem unpacks element i's walk word into its parent index
// (-1 for the virtual root) and item rank.
func decodedElem(d *Decode, i int) (parent int64, rank uint32) {
	if d.wide {
		w := d.walkW[i]
		if w>>32 == wideRoot {
			return -1, uint32(w)
		}
		return int64(w >> 32), uint32(w)
	}
	w := d.walk[i]
	if w>>8 == smallRoot {
		return -1, w & 0xff
	}
	return int64(w >> 8), w & 0xff
}

// TestDecodeParentsAndFootprint checks every decoded element — parent
// index, rank, and the count the walkers read through runCounts —
// against the byte-chasing reference (ScanItem, ParentFields), in both
// walk layouts, and pins the decode's footprint at its walk words plus
// the start table. One Decode and one start index are reused across
// the cases, wide first, so stale state from a larger decoding would
// show up in the smaller one.
func TestDecodeParentsAndFootprint(t *testing.T) {
	var d Decode
	var si startIndex
	for _, tc := range []struct {
		name     string
		numItems int
		wide     bool
		perElem  int64
	}{
		{"wide", 300, true, 8},
		{"small", 40, false, 4},
	} {
		a := decodeTestArray(tc.numItems, 3)
		if !d.from(a, &si) {
			t.Fatalf("%s: from rejected the array", tc.name)
		}
		if d.wide != tc.wide {
			t.Fatalf("%s: wide = %v, want %v", tc.name, d.wide, tc.wide)
		}
		type key struct {
			rank  uint32
			local uint64
		}
		index := map[key]int{}
		var elems []Element
		straddles := false
		for rk := uint32(0); int(rk) < a.NumItems(); rk++ {
			lo, hi := a.starts[rk], a.starts[rk+1]
			straddles = straddles || (lo>>6 != hi>>6 && lo&63 != 0)
			a.ScanItem(rk, func(e Element) bool {
				index[key{rk, e.Local}] = len(elems)
				elems = append(elems, e)
				return true
			})
		}
		if d.NumElems() != len(elems) {
			t.Fatalf("%s: NumElems = %d, want %d", tc.name, d.NumElems(), len(elems))
		}
		var bigCount, farParent bool
		for i, e := range elems {
			parent, rank := decodedElem(&d, i)
			if rank != e.Rank {
				t.Fatalf("%s: element %d rank = %d, want %d", tc.name, i, rank, e.Rank)
			}
			want := int64(-1)
			if e.HasParent() {
				pr, pl := e.ParentRank(), e.ParentLocal()
				p, ok := index[key{pr, pl}]
				if !ok {
					t.Fatalf("%s: element %d: no element starts at parent (rank %d, local %d)", tc.name, i, pr, pl)
				}
				if delta, dpos := a.ParentFields(pr, pl); delta != elems[p].Delta || dpos != elems[p].Dpos {
					t.Fatalf("%s: element %d: ParentFields disagrees with ScanItem at the parent", tc.name, i)
				}
				want = int64(p)
				farParent = farParent || e.Dpos >= 64 || e.Dpos <= -64
			}
			if parent != want {
				t.Fatalf("%s: element %d parent = %d, want %d", tc.name, i, parent, want)
			}
			bigCount = bigCount || e.Count >= 128
		}
		if !straddles || !bigCount || !farParent {
			t.Fatalf("%s: fixture too tame: straddling run %v, count ≥ 128 %v, |Δpos| ≥ 64 %v", tc.name, straddles, bigCount, farParent)
		}
		for rk := uint32(0); int(rk) < a.NumItems(); rk++ {
			lo, hi := d.Run(rk)
			counts := a.runCounts(rk)
			for i := lo; i < hi; i++ {
				if got := counts.next(); uint64(got) != elems[i].Count {
					t.Fatalf("%s: element %d count = %d, want %d", tc.name, i, got, elems[i].Count)
				}
			}
		}
		want := int64(len(elems))*tc.perElem + int64(a.NumItems()+1)*4
		if got := d.Bytes(); got != want {
			t.Errorf("%s: Bytes = %d, want %d (%d B per element plus the start table)", tc.name, got, want, tc.perElem)
		}
	}
}
