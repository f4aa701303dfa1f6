package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"cfpgrowth"
)

const (
	// minReps is the fewest samples of each timed operation in a run,
	// however long the operations take.
	minReps = 3
	// minQueries keeps the p99 of the query latencies measured: at
	// least 20 samples lie beyond it.
	minQueries = 2000
	// setupReps is the number of full set-ups a run times; setup_s is
	// their median.
	setupReps = 3
	// heapInterval is the heap sampler's polling period.
	heapInterval = time.Millisecond
	// burstLen is the length of each closed-loop query burst; a round
	// runs three.
	burstLen = 600 * time.Millisecond
)

// parWorkers is the Parallel setting: two workers, never more than
// the machine has CPUs.
func parWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func mineSerial(in *input, fn cfpgrowth.Handler, mem *cfpgrowth.MemoryStats) error {
	return cfpgrowth.Mine(in.db, cfpgrowth.Options{MinSupport: in.base, Memory: mem}, fn)
}

func mineParallel(in *input, fn cfpgrowth.Handler, rec *cfpgrowth.Recorder) error {
	return cfpgrowth.Mine(in.db, cfpgrowth.Options{MinSupport: in.base, Parallel: parWorkers(), Observe: rec}, fn)
}

// tally counts attempted and failed operations and keeps the first
// few failure messages for standard error.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) op(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.msgs) < 10 {
			t.msgs = append(t.msgs, what+": "+err.Error())
		}
	}
}

// endToEnd holds the raw samples of one untraced run.
type endToEnd struct {
	setup, mine, par, load, remine []float64 // seconds
	heap                           []float64 // bytes
	queryUS                        []float64 // microseconds
	peakModel, indexBytes          int64
}

// setUp performs the index set-up a server would: build the index,
// serialize it, load it back, and answer the first query, which builds
// the item-to-rank map. It returns the loaded index and its bytes.
func setUp(in *input, t *tally) (*cfpgrowth.Index, []byte, time.Duration) {
	t0 := time.Now()
	built, err := cfpgrowth.BuildIndex(in.db, cfpgrowth.Options{MinSupport: in.base})
	if err != nil {
		t.op("BuildIndex", err)
		return nil, nil, 0
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.op("WriteTo", err)
		return nil, nil, 0
	}
	ix, err := cfpgrowth.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.op("ReadIndex", err)
		return nil, nil, 0
	}
	q := in.queries[0]
	got := ix.SupportOf(q.items)
	d := time.Since(t0)
	t.op("first SupportOf", checkSupport(q.items, got, q.want))
	if ix.BaseSupport != in.base || ix.Bytes() != built.Bytes() || ix.NumNodes() != built.NumNodes() {
		t.op("ReadIndex", fmt.Errorf("reloaded index differs: base %d, %d bytes, %d nodes; built base %d, %d bytes, %d nodes",
			ix.BaseSupport, ix.Bytes(), ix.NumNodes(), in.base, built.Bytes(), built.NumNodes()))
	}
	return ix, buf.Bytes(), d
}

// measure runs the untraced end-to-end loop for about seconds. Each
// round runs a serial Mine, a parallel Mine and a load and a remine of
// the index, with a short burst of point queries after each, so every
// metric samples the whole run rather than one stretch of it. Every
// operation's answer is checked.
func measure(in *input, seconds float64, t *tally) (*endToEnd, error) {
	r := &endToEnd{}
	var ix *cfpgrowth.Index
	var ser []byte
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var d time.Duration
		ix, ser, d = setUp(in, t)
		if ix == nil {
			return nil, fmt.Errorf("set-up failed: %v", t.msgs)
		}
		r.setup = append(r.setup, d.Seconds())
	}
	r.indexBytes = ix.Bytes()

	until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	next := 0
	burst := func() {
		runtime.GC()
		next = queryBurst(in, ix, next, burstLen, &r.queryUS, t)
	}
	for round := 0; round < minReps || time.Now().Before(until) || len(r.queryUS) < minQueries; round++ {
		d, heap, model := timedSerial(in, t)
		r.mine = append(r.mine, d)
		r.heap = append(r.heap, heap)
		r.peakModel = model
		burst()
		r.par = append(r.par, timedParallel(in, t))
		burst()
		r.load = append(r.load, timedLoad(ser, ix, t))
		r.remine = append(r.remine, timedRemine(in, ix, t))
		burst()
	}
	return r, nil
}

func timedSerial(in *input, t *tally) (secs, heapBytes float64, model int64) {
	runtime.GC()
	before := heapObjects()
	hs := startHeapSampler(heapInterval)
	var got resultSum
	var mem cfpgrowth.MemoryStats
	t0 := time.Now()
	err := mineSerial(in, got.handler(), &mem)
	d := time.Since(t0)
	peak := hs.Stop()
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("serial Mine", err)
	return d.Seconds(), float64(peak) - float64(before), mem.PeakBytes
}

func timedParallel(in *input, t *tally) float64 {
	runtime.GC()
	var got resultSum
	t0 := time.Now()
	err := mineParallel(in, got.handler(), nil)
	d := time.Since(t0)
	if err == nil {
		err = checkResult(got, in.wantMine)
	}
	t.op("parallel Mine", err)
	return d.Seconds()
}

func timedLoad(ser []byte, ix *cfpgrowth.Index, t *tally) float64 {
	runtime.GC()
	t0 := time.Now()
	loaded, err := cfpgrowth.ReadIndex(bytes.NewReader(ser))
	d := time.Since(t0)
	if err == nil && (loaded.Bytes() != ix.Bytes() || loaded.NumNodes() != ix.NumNodes()) {
		err = fmt.Errorf("loaded %d bytes, %d nodes; want %d, %d", loaded.Bytes(), loaded.NumNodes(), ix.Bytes(), ix.NumNodes())
	}
	t.op("ReadIndex", err)
	return d.Seconds()
}

func timedRemine(in *input, ix *cfpgrowth.Index, t *tally) float64 {
	runtime.GC()
	var got resultSum
	t0 := time.Now()
	err := ix.Mine(in.remineSup, got.handler())
	d := time.Since(t0)
	if err == nil {
		err = checkResult(got, in.wantRemine)
	}
	t.op("Index.Mine", err)
	return d.Seconds()
}

// queryBurst is one closed-loop client: it issues the query set's
// SupportOf calls in order from next, each after the previous one
// returned, for dur, appending each latency in microseconds. It
// returns where the next burst continues.
func queryBurst(in *input, ix *cfpgrowth.Index, next int, dur time.Duration, lat *[]float64, t *tally) int {
	end := time.Now().Add(dur)
	for {
		q := in.queries[next]
		t0 := time.Now()
		got := ix.SupportOf(q.items)
		t1 := time.Now()
		*lat = append(*lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
		t.op("SupportOf", checkSupport(q.items, got, q.want))
		next = (next + 1) % len(in.queries)
		if !t1.Before(end) {
			return next
		}
	}
}

// e2eMetrics turns a run's samples into the end-to-end metrics.
func e2eMetrics(r *endToEnd) (map[string]metric, latencies) {
	q := summarize(r.queryUS)
	m := map[string]metric{
		"setup_s":          {median(r.setup), "s"},
		"mine_s":           {median(r.mine), "s"},
		"par_mine_s":       {median(r.par), "s"},
		"peak_model_bytes": {float64(r.peakModel), "B"},
		"peak_heap_bytes":  {median(r.heap), "B"},
		"index_bytes":      {float64(r.indexBytes), "B"},
		"load_s":           {median(r.load), "s"},
		"query_p50_us":     {q.P50, "us"},
		"remine_s":         {median(r.remine), "s"},
	}
	if q.HasP99 {
		m["query_p99_us"] = metric{q.P99, "us"}
	}
	return m, q
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeTable(w io.Writer, name string, m map[string]metric, order []string) {
	fmt.Fprintf(w, "%s\n", name)
	for _, k := range order {
		if v, ok := m[k]; ok {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", k, v.Value, v.Unit)
		}
	}
}
