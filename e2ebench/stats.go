package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p percent of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// It works in tenths of a percent on integers, so ranks such as the 90th
// of 100 samples come out exact instead of off by one through float error.
func rank(n int, p float64) int {
	permille := int(math.Round(p * 10))
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples above the p-th percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minBeyond is the sample count a reported tail percentile needs above it.
const minBeyond = 10

// supported reports whether n samples support reporting the p-th
// percentile: at least minBeyond samples must lie beyond it.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// tailPercentile returns the highest percentile of candidates (ascending)
// that n samples support, or 0 when none is.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// millis converts durations to float milliseconds, sorted ascending.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the median of unsorted values (the mean of the middle
// two for an even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memWindow measures the Go heap over a measurement window: bytes
// allocated (TotalAlloc delta), GC cycles and pause time, and the peak of
// live heap objects, sampled in the background.
type memWindow struct {
	start    runtime.MemStats
	stop     chan struct{}
	done     sync.WaitGroup
	peakHeap uint64
}

// heapSampleEvery is the peak-heap sampling period: short against the
// tens of milliseconds between GC cycles of the workloads.
const heapSampleEvery = 2 * time.Millisecond

func startMemWindow() *memWindow {
	w := &memWindow{stop: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&w.start)
	w.peakHeap = w.start.HeapAlloc
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					if v := sample[0].Value.Uint64(); v > w.peakHeap {
						w.peakHeap = v
					}
				}
			}
		}
	}()
	return w
}

// memResult is what a finished window measured.
type memResult struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	peakHeap   uint64
}

func (w *memWindow) finish() memResult {
	close(w.stop)
	w.done.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	peak := w.peakHeap
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return memResult{
		allocBytes: end.TotalAlloc - w.start.TotalAlloc,
		gcCycles:   end.NumGC - w.start.NumGC,
		gcPause:    time.Duration(end.PauseTotalNs - w.start.PauseTotalNs),
		peakHeap:   peak,
	}
}

// mallocs is the process's cumulative count of heap allocations. It reads
// runtime.MemStats, which stops the world briefly, so only the traced run
// calls it.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
