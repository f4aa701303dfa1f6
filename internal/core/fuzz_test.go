package core

import (
	"bytes"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// FuzzReadArray checks that arbitrary bytes never panic the CFP-array
// deserializer.
func FuzzReadArray(f *testing.F) {
	var seed bytes.Buffer
	a := buildArrayFrom([][]uint32{{0, 1, 2}, {1, 2}}, 3)
	_, _ = a.WriteTo(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CFPA\x01"))
	f.Add([]byte("CFPA\x01\x03\x02\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		arr, err := ReadArray(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must re-serialize identically.
		var buf bytes.Buffer
		if _, err := arr.WriteTo(&buf); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		if _, err := ReadArray(&buf); err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
	})
}

// FuzzInsertMine feeds a fuzzer-shaped transaction database through
// both CFP-growth and FP-growth and requires identical results. The
// encoding: bytes are items, 0xFF separates transactions.
func FuzzInsertMine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2, 3}, uint8(2))
	f.Add([]byte{5, 5, 5, 0xFF, 5}, uint8(1))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(1))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, minSup uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		var db dataset.Slice
		var tx []uint32
		for _, b := range data {
			if b == 0xFF {
				if len(tx) > 0 {
					db = append(db, txToItems(tx))
					tx = nil
				}
				continue
			}
			tx = append(tx, uint32(b))
		}
		if len(tx) > 0 {
			db = append(db, txToItems(tx))
		}
		if len(db) == 0 {
			return
		}
		ms := uint64(minSup)
		if ms == 0 {
			ms = 1
		}
		// Every frequent itemset is a subset of the frequent items of
		// some transaction, so the result holds at most Σ 2^f itemsets
		// (f = a transaction's distinct frequent items). Past a few
		// hundred thousand, enumerating and diffing both results
		// outlasts the fuzzer's hang timeout without testing anything a
		// smaller input does not.
		if maxResultSize(db, ms) > 1<<18 {
			return
		}
		got, err := mine.Run(Growth{}, db, ms)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mine.Run(fptree.Growth{}, db, ms)
		if err != nil {
			t.Fatal(err)
		}
		if d := mine.Diff("cfpgrowth", got, "fpgrowth", want); d != "" {
			t.Fatalf("results differ:\n%s", d)
		}
	})
}

// maxResultSize bounds the number of itemsets db has at minimum
// support minSup: Σ over transactions of 2^(distinct frequent items),
// saturating at 2^32.
func maxResultSize(db dataset.Slice, minSup uint64) uint64 {
	counts := map[dataset.Item]uint64{}
	for _, tx := range db {
		seen := map[dataset.Item]bool{}
		for _, it := range tx {
			if !seen[it] {
				seen[it] = true
				counts[it]++
			}
		}
	}
	var total uint64
	for _, tx := range db {
		seen := map[dataset.Item]bool{}
		f := 0
		for _, it := range tx {
			if !seen[it] && counts[it] >= minSup {
				seen[it] = true
				f++
			}
		}
		total += 1 << min(f, 32)
	}
	return total
}

func txToItems(tx []uint32) []dataset.Item {
	out := make([]dataset.Item, len(tx))
	copy(out, tx)
	return out
}
