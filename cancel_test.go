package cfpgrowth

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// randomDB builds a database large enough that mining it takes many
// emissions, so mid-run cancellation has something to interrupt.
func randomDB(seed int64, numTx, numItems int) Transactions {
	rng := rand.New(rand.NewSource(seed))
	db := make(Transactions, numTx)
	for i := range db {
		tx := make([]Item, 3+rng.Intn(12))
		for j := range tx {
			tx[j] = Item(1 + rng.Intn(numItems))
		}
		db[i] = tx
	}
	return db
}

func TestMineAlreadyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := randomDB(3, 200, 25)
	for _, name := range Algorithms() {
		var emitted atomic.Uint64
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Context: ctx},
			func([]Item, uint64) error {
				emitted.Add(1)
				return nil
			})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if n := emitted.Load(); n != 0 {
			t.Errorf("%s: %d itemsets emitted from a canceled run", name, n)
		}
	}
}

func TestMineCancelMidRun(t *testing.T) {
	db := randomDB(4, 400, 20)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par", "pfp", "fpgrowth", "eclat", "apriori"} {
		ctx, cancel := context.WithCancel(context.Background())
		var emitted atomic.Uint64
		var after atomic.Uint64
		var canceled atomic.Bool
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, Context: ctx},
			func([]Item, uint64) error {
				if canceled.Load() {
					after.Add(1)
				}
				if emitted.Add(1) == 10 {
					cancel()
					// Give the watcher goroutine time to stop the
					// control; every later emission must then fail the
					// control check before reaching this handler.
					time.Sleep(300 * time.Millisecond)
					canceled.Store(true)
				}
				return nil
			})
		cancel()
		if emitted.Load() < 10 {
			// The run finished before the trigger; nothing to assert.
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if a := after.Load(); a != 0 {
			t.Errorf("%s: %d emissions after cancellation", name, a)
		}
	}
}

func TestMineDeadline(t *testing.T) {
	// A deadline that has already passed behaves like a canceled context.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Mine(randomDB(5, 100, 15), Options{MinSupport: 2, Context: ctx},
		func([]Item, uint64) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestMineMaxBytes(t *testing.T) {
	db := randomDB(6, 500, 30)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par"} {
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, MaxBytes: 64},
			func([]Item, uint64) error { return nil })
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
	}
	// A generous budget must not trip.
	if err := Mine(db, Options{MinSupport: 2, MaxBytes: 1 << 30},
		func([]Item, uint64) error { return nil }); err != nil {
		t.Errorf("1 GiB budget tripped: %v", err)
	}
}

func TestMineMaxItemsets(t *testing.T) {
	db := randomDB(7, 300, 20)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par"} {
		var emitted atomic.Uint64
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, MaxItemsets: 25},
			func([]Item, uint64) error {
				emitted.Add(1)
				return nil
			})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
		if n := emitted.Load(); n > 25 {
			t.Errorf("%s: handler saw %d itemsets, limit was 25", name, n)
		}
	}
}

func TestMineUncontrolledUnchanged(t *testing.T) {
	// The control plumbing must not change results when unused.
	want, err := MineAll(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAll(exampleDB, Options{MinSupport: 2, Context: context.Background(), MaxBytes: 1 << 40, MaxItemsets: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("controlled run found %d itemsets, uncontrolled %d", len(got), len(want))
	}
}

func TestCountCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Count(exampleDB, Options{MinSupport: 2, Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("Count err = %v, want ErrCanceled", err)
	}
}

func TestAnalyzeCompressionCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCompression(exampleDB, Options{MinSupport: 1, Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("AnalyzeCompression err = %v, want ErrCanceled", err)
	}
}

func TestBuildIndexCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildIndex(exampleDB, Options{MinSupport: 1, Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("BuildIndex err = %v, want ErrCanceled", err)
	}
}

func TestBuilderFinishCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b, err := NewBuilder(Options{MinSupport: 1, Context: ctx}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range exampleDB {
		if err := b.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, err := b.Finish(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Finish err = %v, want ErrCanceled", err)
	}
}

// TestIndexBuildMaxBytes: the index builders charge the CFP-tree and
// CFP-array against MaxBytes like Mine does.
func TestIndexBuildMaxBytes(t *testing.T) {
	opts := Options{MinSupport: 1, MaxBytes: 1}
	if _, err := BuildIndex(exampleDB, opts); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("BuildIndex err = %v, want ErrBudgetExceeded", err)
	}
	b, err := NewBuilder(opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range exampleDB {
		if err := b.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Finish err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := AnalyzeCompression(exampleDB, opts); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("AnalyzeCompression err = %v, want ErrBudgetExceeded", err)
	}
	// A generous budget must not trip.
	opts.MaxBytes = 1 << 30
	if _, err := BuildIndex(exampleDB, opts); err != nil {
		t.Errorf("1 GiB budget tripped: %v", err)
	}
}
