package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"cfpgrowth"
	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/obs"
)

// layerSumTolerance bounds |1 − trace.layer_sum_frac|: the layer self
// times must account for the traced operation's wall time within 5%.
const layerSumTolerance = 0.05

// tracer records spans around the benchmark's own calls into each
// layer's public functions. Spans live in memory (obs.Trace rings)
// and are written out as a Chrome trace when the run ends; every span
// of one operation carries the same "op" attribute.
type tracer struct {
	rec   *obs.Recorder
	trace *obs.Trace
	op    int64
}

func newTracer() *tracer {
	tr := &tracer{rec: obs.New(nil), trace: obs.NewTrace(1, 1<<14)}
	tr.rec.AttachTrace(tr.trace)
	return tr
}

func (tr *tracer) begin(name string) obs.Span {
	tr.op++
	return tr.rec.Start(name).With("op", tr.op)
}

func (tr *tracer) child(parent obs.Span, name string) obs.Span {
	return tr.rec.StartChild(parent, name).With("op", tr.op)
}

// opSpans returns the wall time of operation op's root span and the
// self time of each of its spans by name: its duration minus the time
// its child spans cover.
func (tr *tracer) opSpans(op int64) (root float64, self map[string]float64) {
	evs, _ := tr.trace.Events()
	self = map[string]float64{}
	children := map[uint64]int64{}
	var spans []obs.TraceEvent
	for _, ev := range evs {
		if ev.NAttrs > 0 && ev.Attrs[0].Key == "op" && ev.Attrs[0].Val == op {
			spans = append(spans, ev)
			if ev.Parent != 0 {
				children[ev.Parent] += ev.Dur
			}
		}
	}
	for _, ev := range spans {
		self[ev.Name] += float64(ev.Dur-children[ev.ID]) / 1e9
		if ev.Parent == 0 {
			root = float64(ev.Dur) / 1e9
		}
	}
	return root, self
}

func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	var buf bytes.Buffer
	if err := tr.trace.WriteChrome(&buf); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// mineLayers is one traced serial mine pipeline, rebuilt from the
// layers' public functions in the order cfpgrowth.Mine calls them.
type mineLayers struct {
	root, count, recode, insert, convert, growth, decode float64
	frequent                                             int
	treeBytes, logicalNodes, std, chains, embedded       int64
	arenaAllocs, arenaReuses, arenaSlack                 int64
	arrayBytes, arrayNodes                               int64
	decodeBytes, decodeElems                             int64
}

// tracedMine runs count → recode → build → convert → MineArray as one
// traced operation, then a separate decode probe: Decode.From over the
// same array, the top-level decode MineArray performs first. The
// growth layer's self time is its span minus that probe.
func tracedMine(tr *tracer, in *input, t *tally) (*mineLayers, *core.Array, error) {
	l := &mineLayers{}
	root := tr.begin("mine")
	op := tr.op

	sp := tr.child(root, "dataset.count")
	counts, err := dataset.CountItems(in.db)
	sp.End()
	if err != nil {
		root.End()
		return nil, nil, err
	}

	sp = tr.child(root, "dataset.recode")
	rc := dataset.NewRecoder(counts, in.base)
	n := rc.NumFrequent()
	names := make([]uint32, n)
	sups := make([]uint64, n)
	for i := range names {
		names[i] = rc.Decode(uint32(i))
		sups[i] = rc.Support(uint32(i))
	}
	// Recode every transaction into one flat buffer, so the build span
	// below times tree insertion alone. Encode never lengthens a
	// transaction, so each result stays inside flat's capacity.
	total := 0
	for _, tx := range in.db {
		total += len(tx)
	}
	flat := make([]uint32, 0, total)
	ends := make([]int, len(in.db))
	for i, tx := range in.db {
		enc := rc.Encode(tx, flat[len(flat):])
		flat = flat[:len(flat)+len(enc)]
		ends[i] = len(flat)
	}
	sp.End()

	sp = tr.child(root, "build.insert")
	ar := arena.New()
	tree := core.NewTree(ar, core.Config{}, names, sups)
	prev := 0
	for _, e := range ends {
		tree.Insert(flat[prev:e], 1)
		prev = e
	}
	sp.End()
	l.frequent = n
	l.treeBytes = tree.Extent()
	l.logicalNodes = int64(tree.NumNodes())
	std, chains, embedded := tree.PhysNodes()
	l.std, l.chains, l.embedded = int64(std), int64(chains), int64(embedded)
	allocs, _, reuses := ar.Stats()
	l.arenaAllocs, l.arenaReuses = int64(allocs), int64(reuses)
	l.arenaSlack = tree.Extent() - tree.Bytes()

	sp = tr.child(root, "convert")
	arr, err := core.ConvertCtl(tree, nil)
	sp.End()
	if err != nil {
		root.End()
		return nil, nil, err
	}
	l.arrayBytes, l.arrayNodes = arr.Bytes(), int64(arr.NumNodes())

	var got resultSum
	sp = tr.child(root, "growth")
	err = core.MineArray(arr, core.Config{}, in.base, sinkFunc(got.handler()), nil, 0, nil)
	sp.End()
	root.End()
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("traced mine", err)

	probe := tr.begin("decode-probe")
	sp = tr.child(probe, "decode")
	var d core.Decode
	ok := d.From(arr)
	sp.End()
	probe.End()
	if !ok {
		return nil, nil, fmt.Errorf("decode probe: array exceeds the flat decode's index space")
	}
	l.decodeBytes, l.decodeElems = d.Bytes(), int64(d.NumElems())

	var self map[string]float64
	l.root, self = tr.opSpans(op)
	l.count, l.recode, l.insert = self["dataset.count"], self["dataset.recode"], self["build.insert"]
	l.convert, l.growth = self["convert"], self["growth"]
	_, self = tr.opSpans(tr.op)
	l.decode = self["decode"]
	return l, arr, nil
}

// layerSum is Σ layer self times / traced wall time of one traced
// mine. Growth's self time excludes its top-level decode, which is
// charged to the decode layer.
func (l *mineLayers) layerSum() float64 {
	growthSelf := l.growth - l.decode
	return (l.count + l.recode + l.insert + l.convert + l.decode + growthSelf) / l.root
}

type sinkFunc func([]uint32, uint64) error

func (f sinkFunc) Emit(items []uint32, support uint64) error { return f(items, support) }

// growthCounters mines a traced pipeline's array once more with a
// recorder attached, for the recursion's counters: conditional trees
// built and the deepest recursion level.
func growthCounters(in *input, arr *core.Array, t *tally) (condTrees, maxDepth int64, itemsets uint64, err error) {
	ranks := make([]uint32, arr.NumItems())
	for i := range ranks {
		ranks[i] = uint32(len(ranks) - 1 - i)
	}
	rec := obs.New(nil)
	var got resultSum
	err = core.MineArrayItems(arr, core.Config{}, in.base, sinkFunc(got.handler()), nil, 0, ranks, nil, rec)
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("counted mine", err)
	return rec.Count(obs.CtrCondTrees), rec.MaxDepth(), got.N, err
}

// poolStats is one parallel Mine's work-stealing pool accounting.
type poolStats struct {
	busy, idle, imbalance    float64
	jobs, steals, stealFails int64
	workers, shards          int
}

// tracedPool runs cfpgrowth.Mine with Parallel and a recorder attached
// and folds the pool's per-worker and per-shard counters.
func tracedPool(in *input, t *tally) (poolStats, error) {
	rec := cfpgrowth.NewRecorder(nil)
	var got resultSum
	err := mineParallel(in, got.handler(), rec)
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("observed parallel Mine", err)
	if err != nil {
		return poolStats{}, err
	}
	shards, workers := rec.MinePool()
	p := poolStats{workers: len(workers), shards: len(shards)}
	var maxBusy float64
	for _, w := range workers {
		b := float64(w.BusyNanos) / 1e9
		p.busy += b
		p.idle += float64(w.IdleNanos) / 1e9
		p.jobs += w.Jobs
		p.steals += w.Steals
		if b > maxBusy {
			maxBusy = b
		}
	}
	for _, s := range shards {
		p.stealFails += s.StealFails
	}
	if len(workers) > 0 && p.busy > 0 {
		p.imbalance = maxBusy / (p.busy / float64(len(workers)))
	}
	return p, nil
}

// indexLayers is one traced serialize-and-query operation on the
// set-up index.
type indexLayers struct {
	write, read         float64
	bytes               int64
	hitFrac, rejectFrac float64
	allocPerQuery       float64
}

// tracedIndex writes the index, reads it back, and runs one closed-loop
// pass over the whole query set on the loaded copy.
func tracedIndex(tr *tracer, in *input, ix *cfpgrowth.Index, t *tally) (*indexLayers, error) {
	l := &indexLayers{}
	root := tr.begin("index")
	op := tr.op
	var buf bytes.Buffer
	sp := tr.child(root, "serialize.write")
	n, err := ix.WriteTo(&buf)
	sp.End()
	if err != nil {
		root.End()
		return nil, err
	}
	l.bytes = n
	sp = tr.child(root, "serialize.read")
	loaded, err := cfpgrowth.ReadIndex(bytes.NewReader(buf.Bytes()))
	sp.End()
	if err != nil {
		root.End()
		return nil, err
	}
	// The first query builds the item-to-rank map; keep it out of the
	// per-query allocation figure.
	loaded.SupportOf(in.queries[0].items)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	answers := make([]uint64, len(in.queries))
	sp = tr.child(root, "query")
	for i, q := range in.queries {
		answers[i] = loaded.SupportOf(q.items)
	}
	sp.End()
	root.End()
	metrics.Read(allocs)
	l.allocPerQuery = float64(allocs[0].Value.Uint64()-a0) / float64(len(in.queries))
	var hits, rejects int
	for i, q := range in.queries {
		t.op("traced SupportOf", checkSupport(q.items, answers[i], q.want))
		if answers[i] >= in.base {
			hits++
		}
		if q.reject && answers[i] == 0 {
			rejects++
		}
	}
	l.hitFrac = float64(hits) / float64(len(in.queries))
	l.rejectFrac = float64(rejects) / float64(len(in.queries))
	_, self := tr.opSpans(op)
	l.write, l.read = self["serialize.write"], self["serialize.read"]
	return l, nil
}

// gcDelta is the Go runtime's work during one untraced serial Mine.
type gcDelta struct {
	cycles, pauseMS, allocBytes float64
}

// untracedSerial times one plain serial Mine, as mine_s does, and
// reads the runtime's GC counters around it.
func untracedSerial(in *input, t *tally) (float64, gcDelta) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got resultSum
	t0 := time.Now()
	err := mineSerial(in, got.handler(), nil)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("serial Mine", err)
	return d.Seconds(), gcDelta{
		cycles:     float64(after.NumGC - before.NumGC),
		pauseMS:    float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
	}
}

// traceRun is the per-layer run: untraced serial Mines alternate with
// traced pipelines for about seconds, then one growth-counter pass,
// observed parallel Mines and a traced serialize-and-query operation.
func traceRun(in *input, seconds float64, traceDir, traceName string, t *tally) (map[string]metric, map[string][]float64, string, error) {
	tr := newTracer()
	ix, _, _ := setUp(in, t)
	if ix == nil {
		return nil, nil, "", fmt.Errorf("set-up failed: %v", t.msgs)
	}

	var plain []float64
	var gcs []gcDelta
	var layers []*mineLayers
	var arr *core.Array
	until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2*minReps || time.Now().Before(until); i++ {
		if i%2 == 0 {
			d, g := untracedSerial(in, t)
			plain = append(plain, d)
			gcs = append(gcs, g)
			continue
		}
		runtime.GC()
		l, a, err := tracedMine(tr, in, t)
		if err != nil {
			return nil, nil, "", err
		}
		layers = append(layers, l)
		arr = a
	}
	condTrees, maxDepth, itemsets, err := growthCounters(in, arr, t)
	if err != nil {
		return nil, nil, "", err
	}
	var pools []poolStats
	for i := 0; i < 2; i++ {
		runtime.GC()
		p, err := tracedPool(in, t)
		if err != nil {
			return nil, nil, "", err
		}
		pools = append(pools, p)
	}
	runtime.GC()
	il, err := tracedIndex(tr, in, ix, t)
	if err != nil {
		return nil, nil, "", err
	}

	last := layers[len(layers)-1]
	tracedWall := medianOf(layers, func(l *mineLayers) float64 { return l.root })
	layerSum := medianOf(layers, (*mineLayers).layerSum)
	if layerSum < 1-layerSumTolerance || layerSum > 1+layerSumTolerance {
		t.op("trace layer sum", fmt.Errorf("layer self times cover %.3f of the traced wall time, outside 1±%.2f", layerSum, layerSumTolerance))
	}
	m := map[string]metric{
		"dataset.count_s":               {medianOf(layers, func(l *mineLayers) float64 { return l.count }), "s"},
		"dataset.recode_s":              {medianOf(layers, func(l *mineLayers) float64 { return l.recode }), "s"},
		"dataset.frequent_items":        {float64(last.frequent), "count"},
		"build.insert_s":                {medianOf(layers, func(l *mineLayers) float64 { return l.insert }), "s"},
		"build.tree_bytes":              {float64(last.treeBytes), "B"},
		"build.logical_nodes":           {float64(last.logicalNodes), "count"},
		"build.bytes_per_node":          {float64(last.treeBytes) / float64(last.logicalNodes), "B/node"},
		"build.std_nodes":               {float64(last.std), "count"},
		"build.chain_nodes":             {float64(last.chains), "count"},
		"build.embedded_leaves":         {float64(last.embedded), "count"},
		"arena.allocs":                  {float64(last.arenaAllocs), "count"},
		"arena.reuses":                  {float64(last.arenaReuses), "count"},
		"arena.slack_bytes":             {float64(last.arenaSlack), "B"},
		"convert.s":                     {medianOf(layers, func(l *mineLayers) float64 { return l.convert }), "s"},
		"convert.array_bytes":           {float64(last.arrayBytes), "B"},
		"convert.bytes_per_node":        {float64(last.arrayBytes) / float64(last.arrayNodes), "B/node"},
		"decode.s":                      {medianOf(layers, func(l *mineLayers) float64 { return l.decode }), "s"},
		"decode.bytes":                  {float64(last.decodeBytes), "B"},
		"decode.bytes_per_elem":         {float64(last.decodeBytes) / float64(last.decodeElems), "B/elem"},
		"growth.s":                      {medianOf(layers, func(l *mineLayers) float64 { return l.growth }), "s"},
		"growth.cond_trees":             {float64(condTrees), "count"},
		"growth.max_depth":              {float64(maxDepth), "count"},
		"growth.itemsets_per_cond_tree": {float64(itemsets) / float64(condTrees), "itemsets/tree"},
		"pool.busy_s":                   {medianOf(pools, func(p poolStats) float64 { return p.busy }), "s"},
		"pool.idle_s":                   {medianOf(pools, func(p poolStats) float64 { return p.idle }), "s"},
		"pool.jobs":                     {medianOf(pools, func(p poolStats) float64 { return float64(p.jobs) }), "count"},
		"pool.steals":                   {medianOf(pools, func(p poolStats) float64 { return float64(p.steals) }), "count"},
		"pool.steal_fails":              {medianOf(pools, func(p poolStats) float64 { return float64(p.stealFails) }), "count"},
		"pool.busy_imbalance":           {medianOf(pools, func(p poolStats) float64 { return p.imbalance }), "ratio"},
		"serialize.write_s":             {il.write, "s"},
		"serialize.read_s":              {il.read, "s"},
		"serialize.bytes":               {float64(il.bytes), "B"},
		"query.hit_frac":                {il.hitFrac, "ratio"},
		"query.reject_frac":             {il.rejectFrac, "ratio"},
		"query.alloc_bytes_per_op":      {il.allocPerQuery, "B/op"},
		"gc.cycles":                     {medianOf(gcs, func(g gcDelta) float64 { return g.cycles }), "count"},
		"gc.pause_ms":                   {medianOf(gcs, func(g gcDelta) float64 { return g.pauseMS }), "ms"},
		"gc.alloc_bytes":                {medianOf(gcs, func(g gcDelta) float64 { return g.allocBytes }), "B"},
		"trace.overhead_frac":           {(tracedWall - median(plain)) / median(plain), "ratio"},
		"trace.layer_sum_frac":          {layerSum, "ratio"},
	}
	traced := make([]float64, len(layers))
	for i, l := range layers {
		traced[i] = l.root
	}
	samples := map[string][]float64{
		"mine_s":        plain,
		"traced_mine_s": traced,
		"pool_workers":  {float64(pools[0].workers)},
		"pool_shards":   {float64(pools[0].shards)},
	}
	path, err := tr.write(traceDir, traceName)
	if err != nil {
		return nil, nil, "", fmt.Errorf("writing the trace: %w", err)
	}
	return m, samples, path, nil
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}
