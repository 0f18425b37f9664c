package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is the tail rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (sorted
// ascending) and the number of samples strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tail returns the p-th percentile of xs when the tail rule holds.
func tail(xs []float64, p float64) (v float64, beyond int, ok bool) {
	s := sortedCopy(xs)
	v, beyond = percentile(s, p)
	return v, beyond, beyond >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// heapSampler tracks the peak live Go heap (as marked by the latest GC) from
// runtime/metrics while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}
