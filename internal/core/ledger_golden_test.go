package core

import (
	"testing"

	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
	"cfpgrowth/internal/quest"
)

// TestLedgerGolden pins the modeled-byte ledger of the CFP-growth
// engines on one seeded Quest database: the run's peak (what
// MemoryStats.PeakBytes reports) and every phase's bytes_delta. The
// numbers are the paper's memory figures in miniature, so a change to
// the build, convert or mine path must leave them exactly as they are;
// a deliberate change to the ledger updates them here, with a reason.
//
// The two pinned peaks fell from 253,675 B when the flat decode
// stopped holding per-element supports and byte offsets.
func TestLedgerGolden(t *testing.T) {
	db := quest.Generate(quest.Config{NumTx: 2000, AvgTxLen: 12, NumItems: 300, NumPatterns: 60, Seed: 12})
	const minSup = 30
	type phases map[string]int64
	for _, tc := range []struct {
		name  string
		miner func(mine.MemTracker, *obs.Recorder) mine.Miner
		// pinPeak is false where concurrent workers make the peak
		// schedule-dependent; phase deltas are sums and stay exact.
		pinPeak  bool
		itemsets uint64
		peak     int64
		phases   phases
	}{
		{
			name: "cfpgrowth",
			miner: func(tr mine.MemTracker, rec *obs.Recorder) mine.Miner {
				return Growth{Track: tr, Rec: rec}
			},
			pinPeak:  true,
			itemsets: 10284,
			peak:     123570,
			phases:   phases{obs.PhasePass1: 1680, obs.PhaseBuild: 43068, obs.PhaseConvert: 6609, obs.PhaseMine: -49677},
		},
		{
			name: "cfpgrowth-par/w1s3",
			miner: func(tr mine.MemTracker, rec *obs.Recorder) mine.Miner {
				return ParallelGrowth{Workers: 1, Shards: 3, Track: tr, Rec: rec}
			},
			pinPeak:  true,
			itemsets: 10284,
			peak:     123570,
			phases:   phases{obs.PhasePass1: 1680, obs.PhaseBuild: 43068, obs.PhaseConvert: 6609, obs.PhaseMine: -49677},
		},
		{
			name: "cfpgrowth-par/w2s4",
			miner: func(tr mine.MemTracker, rec *obs.Recorder) mine.Miner {
				return ParallelGrowth{Workers: 2, Shards: 4, Track: tr, Rec: rec}
			},
			itemsets: 10284,
			phases:   phases{obs.PhasePass1: 1680, obs.PhaseBuild: 43068, obs.PhaseConvert: 6609, obs.PhaseMine: -49677},
		},
		{
			// DirectGrowth has no recorder, so only the peak is
			// observable.
			name: "cfpgrowth-direct",
			miner: func(tr mine.MemTracker, _ *obs.Recorder) mine.Miner {
				return DirectGrowth{Track: tr}
			},
			pinPeak:  true,
			itemsets: 10284,
			peak:     53174,
			phases:   phases{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peak := &mine.PeakTracker{}
			rec := obs.New(nil)
			var sink mine.CountSink
			if err := tc.miner(peak, rec).Mine(db, minSup, &sink); err != nil {
				t.Fatal(err)
			}
			t.Logf("itemsets %d peak %d phases %v", sink.N, peak.Peak, rec.Phases())
			if sink.N != tc.itemsets {
				t.Errorf("itemsets = %d, want %d", sink.N, tc.itemsets)
			}
			if peak.Cur != 0 {
				t.Errorf("ledger unbalanced at exit: %d B outstanding", peak.Cur)
			}
			if tc.pinPeak && peak.Peak != tc.peak {
				t.Errorf("peak = %d B, want %d B", peak.Peak, tc.peak)
			}
			got := rec.Phases()
			if len(got) != len(tc.phases) {
				t.Errorf("phases = %v, want %v", got, tc.phases)
			}
			for name, want := range tc.phases {
				if ps, ok := got[name]; !ok || ps.Bytes != want {
					t.Errorf("phase %s bytes_delta = %d (present %v), want %d", name, ps.Bytes, ok, want)
				}
			}
		})
	}
}

// ledgerLog records every ledger event in order: positive for Alloc,
// negative for Free.
type ledgerLog []int64

func (l *ledgerLog) Alloc(n int64) { *l = append(*l, n) }
func (l *ledgerLog) Free(n int64)  { *l = append(*l, -n) }

// TestLedgerChargesStartIndex pins how a flat decode is charged: the
// start index is charged before From runs and released only after the
// filled decode is charged, so the run's peak covers the array, the
// decode and the start index at once, and the ledger is back to zero
// after the run.
func TestLedgerChargesStartIndex(t *testing.T) {
	db := quest.Generate(quest.Config{NumTx: 2000, AvgTxLen: 12, NumItems: 300, NumPatterns: 60, Seed: 12})
	const minSup = 30
	arr := buildArrayFor(t, db, minSup)
	var d Decode
	if !d.From(arr) {
		t.Fatal("array exceeds the flat index space")
	}
	resolver := startIndexBytes(arr.DataBytes())
	peak := &mine.PeakTracker{}
	var log ledgerLog
	var sink mine.CountSink
	if err := MineArray(arr, Config{}, minSup, &sink, &mine.TeeTracker{A: peak, B: &log}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if sink.N == 0 {
		t.Fatal("fixture mined nothing")
	}
	want := []int64{arr.Bytes(), resolver, d.Bytes(), -resolver}
	if len(log) < len(want) {
		t.Fatalf("ledger events %v, want a prefix %v", log, want)
	}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("ledger event %d = %d, want %d (events begin %v, want %v)", i, log[i], w, log[:len(want)], want)
		}
	}
	if floor := arr.Bytes() + resolver + d.Bytes(); peak.Peak < floor {
		t.Errorf("peak = %d B, below array + decode + start index = %d B", peak.Peak, floor)
	}
	if peak.Cur != 0 {
		t.Errorf("ledger unbalanced at exit: %d B outstanding", peak.Cur)
	}
}
