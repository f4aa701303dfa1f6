// Command perfbench is the repository's benchmark. It generates one
// workload's input from a seed, certifies the miner on it against an
// FP-growth reference and a bitmap oracle, and then either times the
// public entry points end to end (--trace 0) or decomposes the same
// work into the repository's layers with spans recorded around each
// layer call (--trace 1). Every timed answer is checked; the last line
// of standard output is one JSON result.
//
//	go run . --workload quest1-mine --seed 1 --seconds 20 --trace 0
//	go run . --workload all --seed 1     # every workload, as a table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// e2eOrder is the print order of the end-to-end metrics.
var e2eOrder = []string{
	"setup_s", "mine_s", "par_mine_s", "peak_model_bytes", "peak_heap_bytes",
	"index_bytes", "load_s", "query_p50_us", "query_p99_us", "remine_s",
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the environment and seed block printed before every
// result.
type runInfo struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Seconds    float64              `json:"seconds"`
	Env        environment          `json:"env"`
	ParWorkers int                  `json:"parallel_workers"`
	Input      map[string]any       `json:"input,omitempty"`
	Samples    map[string][]float64 `json:"samples,omitempty"`
	FailedFrac float64              `json:"failed_frac"`
	Failures   []string             `json:"failures,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for every workload in turn")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured time of a run, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end run; 1: traced per-layer run")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *traced == 1, *traceDir, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, workloadNames())
		return 2
	}
	res, info := runWorkload(w, *seed, *seconds, *traced == 1, *traceDir)
	printInfo(stdout, info)
	writeTable(stderr, w.name, res.Metrics, metricOrder(res.Metrics))
	for _, f := range info.Failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}
	enc, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn with the same seed and prints
// each one's metrics by name and unit, then one combined result whose
// metric names are prefixed with the workload.
func runAll(seed int64, seconds float64, traced bool, traceDir string, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		res, info := runWorkload(w, seed, seconds, traced, traceDir)
		printInfo(stdout, info)
		writeTable(stdout, w.name, res.Metrics, metricOrder(res.Metrics))
		fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", "failed_frac", info.FailedFrac, "ratio")
		for _, f := range info.Failures {
			fmt.Fprintln(stderr, "perfbench: FAILED", w.name, f)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	enc, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(enc))
	if !all.Correct {
		return 1
	}
	return 0
}

func runWorkload(w workload, seed int64, seconds float64, traced bool, traceDir string) (result, runInfo) {
	info := runInfo{Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds, Env: readEnvironment(), ParWorkers: parWorkers()}
	var t tally
	metrics := map[string]metric{}
	in, err := prepare(w, seed)
	if err != nil {
		t.op("prepare", err)
	} else {
		info.Input = map[string]any{
			"transactions":    len(in.db),
			"base_support":    in.base,
			"remine_support":  in.remineSup,
			"itemsets":        in.wantMine.N,
			"remine_itemsets": in.wantRemine.N,
			"indexed_items":   in.numIndexed,
			"unindexed_items": in.numUnindexed,
			"queries":         len(in.queries),
		}
		if traced {
			var m map[string]metric
			m, info.Samples, info.TraceFile, err = traceRun(in, seconds, traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed), &t)
			if err != nil {
				t.op("traced run", err)
			}
			metrics = m
		} else {
			var r *endToEnd
			r, err = measure(in, seconds, &t)
			if err != nil {
				t.op("measure", err)
			} else {
				var q latencies
				metrics, q = e2eMetrics(r)
				if !q.HasP99 {
					t.op("query latencies", fmt.Errorf("only %d samples: p99 has fewer than ten beyond it", q.N))
				}
				if !q.ordered() {
					t.op("query latencies", fmt.Errorf("p50 %.3f, p99 %.3f, max %.3f are out of order", q.P50, q.P99, q.Max))
				}
				info.Samples = map[string][]float64{
					"setup_s": r.setup, "mine_s": r.mine, "par_mine_s": r.par,
					"peak_heap_bytes": r.heap, "load_s": r.load, "remine_s": r.remine,
					"query_count": {float64(len(r.queryUS))},
				}
			}
		}
	}
	if metrics == nil {
		metrics = map[string]metric{}
	}
	info.FailedFrac = float64(t.failed) / float64(max(t.attempted, 1))
	info.Failures = t.msgs
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, info
}

func printInfo(w io.Writer, info runInfo) {
	enc, _ := json.Marshal(info)
	fmt.Fprintln(w, string(enc))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metricOrder lists the end-to-end metrics in their fixed order, then
// any others alphabetically.
func metricOrder(m map[string]metric) []string {
	var order []string
	seen := map[string]bool{}
	for _, k := range e2eOrder {
		if _, ok := m[k]; ok {
			order = append(order, k)
			seen[k] = true
		}
	}
	var rest []string
	for k := range m {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(order, rest...)
}
