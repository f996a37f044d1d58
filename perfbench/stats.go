package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail is the highest candidate percentile with at least ten samples
// beyond it, the value at that percentile, and how many samples lie beyond.
type tail struct {
	Pct     float64
	Value   float64
	Samples int
	Beyond  int
}

func tailOf(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		i := rankIndex(n, p)
		if n-i-1 >= 10 || p == 50 {
			return tail{Pct: p, Value: s[i], Samples: n, Beyond: n - i - 1}
		}
	}
	return tail{}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the GC counters the per-layer runtime metrics need.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds, from runtime/metrics
	gcCycles        uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ms[2].Value.Uint64()
	}
	return r
}

// heapSampler records the peak heap (live plus unswept objects) of each
// second of a measured phase. It reads the heap every 5 ms through
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks []float64 // MB per second; guarded_by(mu)
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		t0 := time.Now()
		var peak uint64
		cut := func() {
			h.mu.Lock()
			h.peaks = append(h.peaks, float64(peak)/1e6)
			h.mu.Unlock()
			t0, peak = time.Now(), 0
		}
		for {
			metrics.Read(ms)
			if v := ms[0].Value.Uint64(); v > peak {
				peak = v
			}
			if time.Since(t0) >= time.Second {
				cut()
			}
			select {
			case <-h.stop:
				if time.Since(t0) >= time.Second/2 {
					cut()
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit, and returns the
// median of the per-second peaks in megabytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.peaks)
}

// settle collects garbage so the next measured phase starts from the same
// heap state on every run.
func settle() {
	runtime.GC()
	runtime.GC()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
