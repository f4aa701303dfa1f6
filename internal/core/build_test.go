package core

import (
	"errors"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// scanCounter counts the transactions each scan of a Slice visits.
type scanCounter struct {
	dataset.Slice
	seen []int
}

func (s *scanCounter) Scan(fn func(tx []uint32) error) error {
	s.seen = append(s.seen, 0)
	return s.Slice.Scan(func(tx []uint32) error {
		s.seen[len(s.seen)-1]++
		return fn(tx)
	})
}

// TestBuildProbesMaxBytes: every engine builds through BuildTree, which
// probes the growing tree against Control.MaxBytes every 1024
// transactions. A budget far below the tree's size therefore stops the
// run inside the second scan, before anything is emitted, even when no
// budget tracker charges the control. For DirectGrowth this is the
// build-time stop point it gained by moving onto BuildTree; before, it
// only stopped once mining charged the tree.
func TestBuildProbesMaxBytes(t *testing.T) {
	db := obsDB(5000, 8, 30)
	for _, tc := range []struct {
		name  string
		miner func(*mine.Control) mine.Miner
	}{
		{"cfpgrowth", func(ctl *mine.Control) mine.Miner { return Growth{Ctl: ctl} }},
		{"cfpgrowth-par", func(ctl *mine.Control) mine.Miner { return ParallelGrowth{Workers: 2, Ctl: ctl} }},
		{"cfpgrowth-direct", func(ctl *mine.Control) mine.Miner { return DirectGrowth{Ctl: ctl} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &scanCounter{Slice: db}
			var sink mine.CountSink
			err := tc.miner(&mine.Control{MaxBytes: 1}).Mine(src, 5, &sink)
			if !errors.Is(err, mine.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			// The probe after transaction 1024 stops the control; the
			// next transaction's poll ends the scan.
			if len(src.seen) != 2 || src.seen[1] != 1025 {
				t.Errorf("scans visited %v transactions, want [%d 1025]", src.seen, len(db))
			}
			if sink.N != 0 {
				t.Errorf("%d itemsets emitted after the build stopped", sink.N)
			}
		})
	}
}
