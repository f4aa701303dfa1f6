package cfpgrowth

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestIndexBuildAndMine(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.BaseSupport != 2 || ix.NumTx != 6 {
		t.Errorf("header = support %d, tx %d", ix.BaseSupport, ix.NumTx)
	}
	got, err := ix.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAll(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("index mining differs from direct mining")
	}
	// Mining at higher support from the same index.
	got3, err := ix.MineAll(3)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := MineAll(exampleDB, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want3) {
		t.Error("index mining at raised support differs")
	}
}

func TestIndexRejectsLowerSupport(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Mine(2, func([]Item, uint64) error { return nil }); err == nil {
		t.Error("mining below base support accepted")
	}
	if _, err := ix.MineAll(1); err == nil {
		t.Error("MineAll below base support accepted")
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseSupport != ix.BaseSupport || got.NumTx != ix.NumTx {
		t.Error("header lost in round trip")
	}
	a, _ := got.MineAll(2)
	b, _ := ix.MineAll(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("deserialized index mines differently")
	}
}

func TestIndexSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.cfpa")
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := got.MineAll(2)
	b, _ := ix.MineAll(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("loaded index mines differently")
	}
	if _, err := LoadIndex(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading a missing index succeeded")
	}
}

func TestIndexFootprintSmall(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumNodes() == 0 {
		t.Fatal("empty index")
	}
	perNode := float64(ix.Bytes()) / float64(ix.NumNodes())
	if perNode > 28 {
		t.Errorf("index costs %.1f B/node, not smaller than an FP-tree", perNode)
	}
}

func TestIndexSupportOf(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		items []Item
		want  uint64
	}{
		{[]Item{1}, 4},
		{[]Item{1, 2}, 3},
		{[]Item{2, 1}, 3}, // order independent
		{[]Item{1, 2, 3}, 2},
		{[]Item{1, 4}, 1},
		{[]Item{3, 4}, 1},
		{[]Item{1, 2, 3, 4}, 1},
		{[]Item{99}, 0},   // unknown item
		{[]Item{1, 1}, 0}, // duplicates: not a set
		{nil, 0},
	}
	for _, c := range cases {
		if got := ix.SupportOf(c.items); got != c.want {
			t.Errorf("SupportOf(%v) = %d, want %d", c.items, got, c.want)
		}
	}
}

func TestIndexSupportOfAfterReload(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.SupportOf([]Item{1, 2}); s != 3 {
		t.Errorf("reloaded SupportOf(1,2) = %d, want 3", s)
	}
}

// TestIndexSupportOfConcurrent queries a freshly read index from
// several goroutines at once: SupportOf must only read shared state,
// so -race stays quiet.
func TestIndexSupportOfConcurrent(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s := got.SupportOf([]Item{1, 2}); s != 3 {
				t.Errorf("concurrent SupportOf(1,2) = %d, want 3", s)
			}
		}()
	}
	wg.Wait()
}

// scanCounter is a Source that counts its scans.
type scanCounter struct {
	Source
	scans int
}

func (s *scanCounter) Scan(fn func(tx []Item) error) error {
	s.scans++
	return s.Source.Scan(fn)
}

// TestIndexBuildScansTwice: the index builders resolve a relative
// threshold from their own first pass, so both support forms cost
// exactly the two scans of a prefix-tree build.
func TestIndexBuildScansTwice(t *testing.T) {
	for name, opts := range map[string]Options{
		"absolute": {MinSupport: 2},
		"relative": {RelativeSupport: 0.3},
	} {
		src := &scanCounter{Source: exampleDB}
		if _, err := BuildIndex(src, opts); err != nil {
			t.Fatal(err)
		}
		if src.scans != 2 {
			t.Errorf("%s BuildIndex: %d scans, want 2", name, src.scans)
		}
		src = &scanCounter{Source: exampleDB}
		if _, err := AnalyzeCompression(src, opts); err != nil {
			t.Fatal(err)
		}
		if src.scans != 2 {
			t.Errorf("%s AnalyzeCompression: %d scans, want 2", name, src.scans)
		}
	}
}

// TestIndexBuildersAgree: BuildIndex, the Builder and
// AnalyzeCompression build the same CFP-array from the same database.
func TestIndexBuildersAgree(t *testing.T) {
	db := randomDB(11, 600, 40)
	for name, opts := range map[string]Options{
		"absolute": {MinSupport: 6},
		"relative": {RelativeSupport: 0.02, Tree: TreeConfig{MaxChainLen: 4, DisableEmbed: true}},
	} {
		ix, err := BuildIndex(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(opts, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range db {
			if err := b.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		bix, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if _, err := ix.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if _, err := bix.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Builder index (%d B serialized) differs from BuildIndex (%d B)", name, got.Len(), want.Len())
		}
		cs, err := AnalyzeCompression(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cs.CFPArrayBytes != ix.Bytes() {
			t.Errorf("%s: AnalyzeCompression CFPArrayBytes = %d, Index.Bytes() = %d", name, cs.CFPArrayBytes, ix.Bytes())
		}
	}
}
