package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCountItems(t *testing.T) {
	db := Slice{
		{1, 2, 3},
		{2, 3},
		{3},
		{2, 2, 2}, // duplicates count once
		{},
	}
	c, err := CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTx != 5 {
		t.Errorf("NumTx = %d, want 5", c.NumTx)
	}
	want := map[Item]uint64{1: 1, 2: 3, 3: 3}
	if !reflect.DeepEqual(c.Support, want) {
		t.Errorf("Support = %v, want %v", c.Support, want)
	}
}

func TestRecoderRanksByDescendingSupport(t *testing.T) {
	db := Slice{
		{10, 20, 30, 40},
		{10, 20, 30},
		{10, 20},
		{10},
	}
	c, _ := CountItems(db)
	r := NewRecoder(c, 2) // item 40 (support 1) is infrequent
	if r.NumFrequent() != 3 {
		t.Fatalf("NumFrequent = %d, want 3", r.NumFrequent())
	}
	// Rank 0 must be the most frequent item.
	if r.Decode(0) != 10 || r.Decode(1) != 20 || r.Decode(2) != 30 {
		t.Errorf("rank order = %d,%d,%d, want 10,20,30", r.Decode(0), r.Decode(1), r.Decode(2))
	}
	if r.Support(0) != 4 || r.Support(2) != 2 {
		t.Errorf("supports = %d,%d, want 4,2", r.Support(0), r.Support(2))
	}
	if items := r.Items(); !reflect.DeepEqual(items, []Item{10, 20, 30}) || cap(items) != len(items) {
		t.Errorf("Items = %v (cap %d), want [10 20 30] capped at its length", items, cap(items))
	}
	if sups := r.Supports(); !reflect.DeepEqual(sups, []uint64{4, 3, 2}) {
		t.Errorf("Supports = %v, want [4 3 2]", sups)
	}
}

func TestRecoderTieBreakDeterministic(t *testing.T) {
	db := Slice{{5, 3, 9}, {5, 3, 9}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	// Equal supports: ascending original id.
	if r.Decode(0) != 3 || r.Decode(1) != 5 || r.Decode(2) != 9 {
		t.Errorf("tie-break order = %d,%d,%d, want 3,5,9", r.Decode(0), r.Decode(1), r.Decode(2))
	}
}

func TestEncodeFiltersSortsDedupes(t *testing.T) {
	db := Slice{
		{1, 2, 3, 4}, {1, 2, 3}, {1, 2}, {1},
	}
	c, _ := CountItems(db)
	r := NewRecoder(c, 2)
	got := r.Encode([]Item{4, 3, 1, 3, 2, 99}, nil)
	// item 4 and 99 infrequent; ranks: 1->0, 2->1, 3->2.
	want := []uint32{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Encode = %v, want %v", got, want)
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	db := Slice{{1, 2}, {1, 2}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	buf := make([]uint32, 0, 16)
	got := r.Encode([]Item{2, 1}, buf)
	if &got[0] != &buf[:1][0] {
		t.Error("Encode did not reuse the provided buffer")
	}
}

func TestDecodeSet(t *testing.T) {
	db := Slice{{7, 8}, {7, 8}, {7}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	got := r.DecodeSet([]uint32{1, 0})
	if !reflect.DeepEqual(got, []Item{7, 8}) {
		t.Errorf("DecodeSet = %v, want [7 8]", got)
	}
}

func TestAbsoluteSupport(t *testing.T) {
	cases := []struct {
		rel   float64
		numTx uint64
		want  uint64
	}{
		{0.1, 100, 10},
		{0.015, 1000, 15},
		{0.0151, 1000, 16}, // rounds up
		{0, 100, 1},
		{1.0, 100, 100},
		{0.5, 3, 2},
	}
	for _, c := range cases {
		if got := AbsoluteSupport(c.rel, c.numTx); got != c.want {
			t.Errorf("AbsoluteSupport(%v, %d) = %d, want %d", c.rel, c.numTx, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	n, d, avg, err := Validate(Slice{{1, 2}, {2, 3}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || d != 3 || avg < 1.66 || avg > 1.67 {
		t.Errorf("Validate = (%d,%d,%v)", n, d, avg)
	}
	if _, _, _, err := Validate(Slice{}); err == nil {
		t.Error("Validate accepted empty database")
	}
	if _, _, _, err := Validate(Slice{nil}); err == nil {
		t.Error("Validate accepted nil transaction")
	}
}

// Property: encoding is idempotent on already-encoded frequent-only
// transactions and preserves the item multiset as a set.
func TestEncodeSetSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := make(Slice, 20)
		for i := range db {
			tx := make([]Item, rng.Intn(10))
			for j := range tx {
				tx[j] = Item(rng.Intn(15))
			}
			db[i] = tx
		}
		c, err := CountItems(db)
		if err != nil {
			return false
		}
		r := NewRecoder(c, 2)
		for _, tx := range db {
			enc := r.Encode(tx, nil)
			// Strictly increasing ranks.
			for k := 1; k < len(enc); k++ {
				if enc[k] <= enc[k-1] {
					return false
				}
			}
			// Every encoded rank decodes to an item present in tx.
			for _, rk := range enc {
				orig := r.Decode(rk)
				found := false
				for _, it := range tx {
					if it == orig {
						found = true
					}
				}
				if !found {
					return false
				}
			}
			// Every frequent item of tx appears in enc.
			for _, it := range tx {
				if c.Support[it] >= 2 {
					found := false
					for _, rk := range enc {
						if r.Decode(rk) == it {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
