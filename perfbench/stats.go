package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies summarizes raw per-query samples with exact nearest-rank
// percentiles. P99 is set only when at least ten samples lie beyond
// it; below that the tail is not measured, only guessed.
type latencies struct {
	N        int
	P50, Max float64
	P99      float64
	HasP99   bool
}

func summarize(samples []float64) latencies {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return latencies{}
	}
	rank := func(p float64) int { return int(math.Ceil(p*float64(n))) - 1 }
	l := latencies{N: n, P50: s[rank(0.50)], Max: s[n-1]}
	if i := rank(0.99); n-1-i >= 10 {
		l.P99, l.HasP99 = s[i], true
	}
	return l
}

// ordered reports whether p50 ≤ p99 ≤ max holds, the invariant every
// reported latency summary must satisfy.
func (l latencies) ordered() bool {
	return l.P50 <= l.Max && (!l.HasP99 || (l.P50 <= l.P99 && l.P99 <= l.Max))
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the highest heap-objects reading seen by one
// goroutine polling runtime/metrics at a fixed interval, from start
// until stop.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapObjects()}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler goroutine to exit, and
// returns the peak it saw.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	if v := heapObjects(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// environment is the machine and toolchain block printed with every
// result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where the kernel does not provide one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
