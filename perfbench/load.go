package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"ndirect/internal/tensor"
)

// goldens holds the first response for every (model, input): every
// later response for that input must be bit-identical to it.
type goldens struct {
	mu  sync.RWMutex
	out [][][]uint32 // [model][input] float32 bit patterns; nil until set
}

func newGoldens(models, inputs int) *goldens {
	g := &goldens{out: make([][][]uint32, models)}
	for i := range g.out {
		g.out[i] = make([][]uint32, inputs)
	}
	return g
}

func bitsOf(t *tensor.Tensor) []uint32 {
	b := make([]uint32, len(t.Data))
	for i, v := range t.Data {
		b[i] = math.Float32bits(v)
	}
	return b
}

// set records r's golden output unless one is already recorded, and
// reports whether t matches the (possibly pre-existing) golden.
func (g *goldens) set(r request, t *tensor.Tensor) bool {
	g.mu.Lock()
	if g.out[r.Model][r.Input] == nil {
		g.out[r.Model][r.Input] = bitsOf(t)
		g.mu.Unlock()
		return true
	}
	g.mu.Unlock()
	return g.check(r, t)
}

// check reports whether t is bit-identical to r's golden output.
func (g *goldens) check(r request, t *tensor.Tensor) bool {
	g.mu.RLock()
	want := g.out[r.Model][r.Input]
	g.mu.RUnlock()
	if t == nil || want == nil || len(want) != len(t.Data) {
		return false
	}
	for i, v := range t.Data {
		if math.Float32bits(v) != want[i] {
			return false
		}
	}
	return true
}

// golden returns r's golden output as a tensor shaped like like.
func (g *goldens) golden(r request, like *tensor.Tensor) *tensor.Tensor {
	g.mu.RLock()
	bits := g.out[r.Model][r.Input]
	g.mu.RUnlock()
	data := make([]float32, len(bits))
	for i, b := range bits {
		data[i] = math.Float32frombits(b)
	}
	return tensor.FromSlice(data, like.Dims...)
}

// sample is one finished request.
type sample struct {
	req   request
	latMS float64 // closed loop: from send; open loop: from due time
	lagMS float64 // how late the generator sent it
	err   error
	wrong bool // served, but not bit-identical to its golden
}

func (s sample) ok() bool { return s.err == nil && !s.wrong }

// loadResult is one load phase.
type loadResult struct {
	samples []sample
	elapsed time.Duration
}

func (lr loadResult) counts() (attempted, failed, wrong int64) {
	for _, s := range lr.samples {
		attempted++
		if s.wrong {
			wrong++
		}
		if !s.ok() {
			failed++
		}
	}
	return
}

// latencies returns the latencies of correct responses; misses
// (failed, shed or wrong) are returned as +Inf when withMisses is set.
func (lr loadResult) latencies(withMisses bool) []float64 {
	out := make([]float64, 0, len(lr.samples))
	for _, s := range lr.samples {
		switch {
		case s.ok():
			out = append(out, s.latMS)
		case withMisses:
			out = append(out, math.Inf(1))
		}
	}
	return out
}

func (lr loadResult) lags() []float64 {
	out := make([]float64, len(lr.samples))
	for i, s := range lr.samples {
		out[i] = s.lagMS
	}
	return out
}

func (lr loadResult) correctPerSecond() float64 {
	n := 0
	for _, s := range lr.samples {
		if s.ok() {
			n++
		}
	}
	return float64(n) / lr.elapsed.Seconds()
}

// target is what a load phase sends requests to.
type target struct {
	infer   func(ctx context.Context, r request) (*tensor.Tensor, error)
	gold    *goldens
	timeout time.Duration
	// around, when non-nil, wraps each Infer (the traced run's spans).
	around func(r request, call func())
}

func (tg *target) do(r request) sample {
	var out *tensor.Tensor
	var err error
	call := func() {
		ctx, cancel := context.WithTimeout(context.Background(), tg.timeout)
		out, err = tg.infer(ctx, r)
		cancel()
	}
	if tg.around != nil {
		tg.around(r, call)
	} else {
		call()
	}
	s := sample{req: r, err: err}
	if err == nil {
		s.wrong = !tg.gold.check(r, out)
	}
	return s
}

// closedLoop runs clients closed-loop clients for d: each sends its
// next request (drawn from its own seeded stream over n models) as soon
// as the previous one has returned and been checked.
func closedLoop(tg *target, clients int, seed int64, weights []float64, n, inputs int, d time.Duration) loadResult {
	var mu sync.Mutex
	var all []sample
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dr := newDrawer(streamSeed(seed, c), weights, n, inputs)
			var mine []sample
			prev := start
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					break
				}
				s := tg.do(dr.next())
				done := time.Now()
				s.latMS = ms(done.Sub(sent))
				s.lagMS = ms(sent.Sub(prev))
				prev = done
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return loadResult{samples: all, elapsed: time.Since(start)}
}

// maxOutstanding bounds the open loop's concurrent requests; an
// arrival beyond it is a client-side miss (the server has stalled far
// past any latency limit).
const maxOutstanding = 512

// openLoop sends each arrival at its due time regardless of
// completions, times it from the due time, and records how late the
// generator sent it.
func openLoop(tg *target, arrivals []arrival) loadResult {
	samples := make([]sample, len(arrivals))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		select {
		case sem <- struct{}{}:
		default:
			samples[i] = sample{req: a.request, err: errClientOverflow, latMS: math.Inf(1), lagMS: ms(sent.Sub(due))}
			continue
		}
		wg.Add(1)
		go func(i int, a arrival, due, sent time.Time) {
			defer wg.Done()
			s := tg.do(a.request)
			s.latMS, s.lagMS = fromDue(due, sent, time.Now())
			samples[i] = s
			<-sem
		}(i, a, due, sent)
	}
	wg.Wait()
	return loadResult{samples: samples, elapsed: time.Since(start)}
}

// fromDue times an open-loop request from its due time, so a late
// generator's delay counts against the request, and reports that delay
// as the generator's lag.
func fromDue(due, sent, done time.Time) (latMS, lagMS float64) {
	return ms(done.Sub(due)), ms(sent.Sub(due))
}

var errClientOverflow = errors.New("open-loop generator overflow")

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
