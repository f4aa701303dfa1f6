package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/synth"
)

// A workload is one seeded input. Every workload runs every operation,
// so every end-to-end metric exists on each; the inputs decide which
// layers carry the load. BENCHMARK.json records why each workload
// exists.
type workload struct {
	name string
	gen  func(seed int64) dataset.Slice
}

const (
	// baseRel is the support ξ of Mine and of the index, as a share of
	// the transactions.
	baseRel = 0.01
	// remineMult is the Index.Mine support as a multiple of ξ.
	remineMult = 3
	// queries is the size of a run's point-query set, cycled by the
	// closed-loop client.
	queries = 16000
)

var workloads = []workload{
	// Long dense-ish transactions: mining (decode, growth, pool)
	// dominates; pass 1 and the build are small.
	{name: "quest1-mine", gen: genQuest1},
	// ~1M short sparse transactions: pass 1, recoding, the CFP-tree
	// build and conversion dominate; the mine phase is small.
	{name: "kosarak-build", gen: genKosarak},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genQuest1 is the paper's Quest1 shape at scale 1000: 25k
// transactions of average length 100 over 20k items.
func genQuest1(seed int64) dataset.Slice {
	c := quest.Quest1(1000)
	c.Seed = seed
	return quest.Generate(c)
}

// genKosarak is the kosarak clickstream profile at full size: 990k
// transactions of average length 8.1 over 41k items.
func genKosarak(seed int64) dataset.Slice {
	p, _ := synth.ByName("kosarak")
	p.Seed = seed
	return p.Generate(1)
}

// query is one point query with the oracle's answer. reject marks a
// query holding an item below the base support.
type query struct {
	items  []uint32
	want   uint64
	reject bool
}

// input is everything a run derives from its seed before timing
// starts: the database, the supports, the oracle's answers and the
// query set.
type input struct {
	db                       dataset.Slice
	base, remineSup          uint64
	wantMine, wantRemine     resultSum
	queries                  []query
	numIndexed, numUnindexed int
}

// prepare generates the workload's input and certifies the miner on it
// once, untimed: the reference FP-growth gives the expected count and
// checksum at both supports, a serial cfpgrowth.Mine must match them,
// and the bitmap oracle recounts every itemset it reports. The planted
// fault self-test runs on the same data. The bitmaps are dropped
// before returning; only the expected answers stay resident.
func prepare(w workload, seed int64) (*input, error) {
	in := &input{db: w.gen(seed)}
	numTx := uint64(len(in.db))
	in.base = (numTx*uint64(baseRel*10000) + 9999) / 10000
	in.remineSup = remineMult * in.base
	var err error
	in.wantMine, in.wantRemine, err = referenceSums(in.db, in.base, in.remineSup)
	if err != nil {
		return nil, err
	}
	orc := newOracle(in.db, in.base)
	certified, err := certifyMine(in, orc)
	if err != nil {
		return nil, err
	}
	in.queries, in.numIndexed, in.numUnindexed = makeQueries(rand.New(rand.NewSource(seed)), orc, certified)
	if err := selfTest(orc, certified, in.wantMine, in.queries); err != nil {
		return nil, err
	}
	runtime.GC()
	return in, nil
}

// makeQueries draws the seeded point-query mix: half are itemsets of
// the miner's own certified result, the rest random 2–4-item sets of
// indexed items, one in ten of which swaps in an unindexed item.
//
// A query's cost is set by its least frequent item (SupportOf scans
// that item's nodes), so result itemsets are drawn by first picking
// that item uniformly among indexed items and then an itemset it is the
// least frequent item of. Drawn uniformly instead, the mix would hinge
// on how many subsets one long pattern happens to add to a seed's
// result.
func makeQueries(rng *rand.Rand, o *oracle, result []itemset) (qs []query, numIndexed, numUnindexed int) {
	var indexed, unindexed []uint32
	for it := range o.support {
		if o.indexed(it) {
			indexed = append(indexed, it)
		} else {
			unindexed = append(unindexed, it)
		}
	}
	sort.Slice(indexed, func(i, j int) bool { return indexed[i] < indexed[j] })
	sort.Slice(unindexed, func(i, j int) bool { return unindexed[i] < unindexed[j] })
	byLeast := map[uint32][]int{}
	for i, s := range result {
		least := s.items[0]
		for _, it := range s.items[1:] {
			if o.support[it] < o.support[least] {
				least = it
			}
		}
		byLeast[least] = append(byLeast[least], i)
	}
	var leastItems []uint32
	for it := range byLeast {
		leastItems = append(leastItems, it)
	}
	sort.Slice(leastItems, func(i, j int) bool { return leastItems[i] < leastItems[j] })
	qs = make([]query, 0, queries)
	for len(qs) < queries {
		var items []uint32
		reject := false
		switch r := rng.Intn(20); {
		case r < 10:
			group := byLeast[leastItems[rng.Intn(len(leastItems))]]
			items = append(items, result[group[rng.Intn(len(group))]].items...)
		default:
			k := 2 + rng.Intn(3)
			if k > len(indexed) {
				k = len(indexed)
			}
			for _, i := range rng.Perm(len(indexed))[:k] {
				items = append(items, indexed[i])
			}
			if r == 19 && len(unindexed) > 0 {
				items[0] = unindexed[rng.Intn(len(unindexed))]
				reject = true
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		qs = append(qs, query{items: items, want: o.expectSupport(items), reject: reject})
	}
	return qs, len(indexed), len(unindexed)
}

// certifyMine runs one untimed serial Mine (it doubles as the warm-up)
// and checks it for completeness against the reference fingerprint
// and for soundness against the bitmap oracle. It returns the
// certified itemsets.
func certifyMine(in *input, o *oracle) ([]itemset, error) {
	var c collector
	if err := mineSerial(in, c.handler(), nil); err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	if err := checkResult(c.sum, in.wantMine); err != nil {
		return nil, fmt.Errorf("certify against FP-growth: %w", err)
	}
	if err := o.recount(c.sets); err != nil {
		return nil, fmt.Errorf("certify against bitmaps: %w", err)
	}
	return c.sets, nil
}
