package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ndirect/internal/tensor"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// modelSlots is how many per-model nn.mK.ms metrics a traced run
// reports: every model of the closed loops, the most popular models of
// edge-burst.
const modelSlots = 5

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"core.kernel_ms", "ms"},
		{"core.pack_ms", "ms"},
		{"core.store_ms", "ms"},
		{"core.transform_ms", "ms"},
		{"core.store_share", "ratio"},
		{"core.gflops", "GFLOP/s"},
		{"core.bytes_per_flop", "B/FLOP"},
		{"core.dw_ms", "ms"},
		{"core.sep_fused_ratio", "x"},
		{"core.repack_us", "us"},
		{"core.plan_build_ms", "ms"},
	}
	for k := 1; k <= modelSlots; k++ {
		ms = append(ms, metricSpec{fmt.Sprintf("nn.m%d.ms", k), "ms"})
	}
	return append(ms,
		metricSpec{"nn.glue_share", "ratio"},
		metricSpec{"serve.overhead_ms", "ms"},
		metricSpec{"serve.queue_wait_ms", "ms"},
		metricSpec{"serve.shed_ratio", "ratio"},
		metricSpec{"serve.batch_fill", "ratio"},
		metricSpec{"serve.batch_size", "count"},
		metricSpec{"serve.evictions_per_kreq", "count"},
		metricSpec{"serve.residency_denied", "count"},
		metricSpec{"serve.plan_miss_ratio", "ratio"},
		metricSpec{"serve.sentinel_probes", "count"},
		metricSpec{"serve.reference_infers", "count"},
		metricSpec{"parallel.spawned_per_req", "count"},
		metricSpec{"parallel.dispatched_per_req", "count"},
		metricSpec{"load.lag_p99_ms", "ms"},
		metricSpec{"trace.overhead_ratio", "x"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's full record: the result plus everything needed
// to tell whether two results are comparable.
type report struct {
	Host     hostInfo    `json:"host"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Stack    stackConfig `json:"stack"`
	Result   result      `json:"result"`
	Wrong    int64       `json:"wrong"`
	// Lines are the human-readable metric lines (name, value, unit,
	// sample counts), printed before the result.
	Lines    []string `json:"lines"`
	SpanFile string   `json:"span_file,omitempty"`
}

func (r *report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// collect builds the result's metrics from values, which must hold
// exactly the names of specs.
func collect(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(values), len(specs))
	}
	return out, nil
}

// session is one run's prepared state: models, inputs, the measured
// registry and the golden outputs.
type session struct {
	w       *workload
	seed    int64
	models  []*model
	inputs  [][]*tensor.Tensor
	weights []float64
	cfg     stackConfig
	st      *stack
	gold    *goldens
	setupS  []float64
	wrong   int64
}

// prepare builds the models and inputs, sizes the weight budget, runs
// the set-up repetitions (the last one's stack is kept for the
// measurement), then checks one response per (model, input) against
// the independent oracle. Oracle time is not part of setup_s.
func prepare(w *workload, seed int64, rep *report) (*session, error) {
	models, err := w.build()
	if err != nil {
		return nil, err
	}
	s := &session{w: w, seed: seed, models: models, cfg: w.stack}
	s.inputs = makeInputs(w, models, seed)
	s.weights = w.modelWeights(len(models))
	s.gold = newGoldens(len(models), w.inputsPerModel)
	s.cfg.Threads = gomaxprocs()
	if w.weightShare > 0 {
		total, err := s.packedBytes()
		if err != nil {
			return nil, err
		}
		s.cfg.WeightLimitBytes = int64(w.weightShare * float64(total))
	}
	for i := 0; i < w.setupReps; i++ {
		if s.st != nil {
			s.st.teardown(models)
		}
		runtime.GC()
		t, err := s.setupOnce()
		if err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, t)
	}
	// Serve every remaining input once: these first responses become
	// the goldens that later responses must match bit for bit.
	for mi, m := range models {
		for k := range s.inputs[mi] {
			r := request{Model: mi, Input: k}
			out, err := s.st.infer(context.Background(), m, s.inputs[mi][k])
			if err != nil {
				return nil, fmt.Errorf("warm-up %s input %d: %w", m.name, k, err)
			}
			if !s.gold.set(r, out) {
				s.wrong++
				rep.linef("check %s input %d: response differs from the first one for this input", m.name, k)
			}
		}
	}
	worst, tol := 0.0, 0.0
	for mi, m := range models {
		for k, x := range s.inputs[mi] {
			r := request{Model: mi, Input: k}
			var want *tensor.Tensor
			var err error
			want, tol, err = oracle(m, x, s.cfg.Threads)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", m.name, err)
			}
			got := s.gold.golden(r, want)
			d := relDiff(got, want)
			if d > tol {
				s.wrong++
				rep.linef("check %s input %d: rel diff %.3g vs oracle exceeds %.3g", m.name, k, d, tol)
			}
			if d > worst {
				worst = d
			}
		}
	}
	kind := "im2col+GEMM"
	if models[0].integer {
		kind = "float64 reference"
	}
	rep.linef("check oracle: %d models x %d inputs against %s, worst rel diff %.3g (tolerance %.0e)", len(models), w.inputsPerModel, kind, worst, tol)
	return s, nil
}

// packedBytes measures the models' total packed weight bytes on an
// unlimited stack (each model served once).
func (s *session) packedBytes() (int64, error) {
	cfg := s.cfg
	cfg.WeightLimitBytes = 0
	cfg.Sentinel = 0
	st := newStack(cfg)
	defer st.teardown(s.models)
	for mi, m := range s.models {
		if err := st.register(m); err != nil {
			return 0, err
		}
		if _, err := st.infer(context.Background(), m, s.inputs[mi][0]); err != nil {
			return 0, err
		}
	}
	return st.counters().WeightPeakBytes, nil
}

// setupOnce times one cold set-up: a new registry, every model
// registered and served its first request.
func (s *session) setupOnce() (float64, error) {
	start := time.Now()
	s.st = newStack(s.cfg)
	outs := make([]*tensor.Tensor, len(s.models))
	for mi, m := range s.models {
		if err := s.st.register(m); err != nil {
			return 0, fmt.Errorf("register %s: %w", m.name, err)
		}
		out, err := s.st.infer(context.Background(), m, s.inputs[mi][0])
		if err != nil {
			return 0, fmt.Errorf("first request %s: %w", m.name, err)
		}
		outs[mi] = out
	}
	elapsed := time.Since(start).Seconds()
	for mi, out := range outs {
		if !s.gold.set(request{Model: mi}, out) {
			s.wrong++
		}
	}
	return elapsed, nil
}

func (s *session) target(timeout time.Duration) *target {
	infer := func(ctx context.Context, r request) (*tensor.Tensor, error) {
		return s.st.infer(ctx, s.models[r.Model], s.inputs[r.Model][r.Input])
	}
	return &target{infer: infer, gold: s.gold, timeout: timeout}
}

// requestTimeout bounds one request; a request past it fails.
func (w *workload) requestTimeout() time.Duration {
	if w.closed() {
		return 30 * time.Second
	}
	return 2 * time.Second
}

// measure runs the untraced measurement window and fills the
// end-to-end metrics.
func (s *session) measure(seconds float64, rep *report) (map[string]float64, loadResult) {
	w := s.w
	window := time.Duration(seconds * float64(time.Second))
	tg := s.target(w.requestTimeout())
	runtime.GC()
	base := s.st.counters()
	heap := startHeapSampler(2 * time.Millisecond)
	var main loadResult
	var ladderRuns []loadResult
	var ladderDur time.Duration
	var peak uint64
	if w.closed() {
		main = closedLoop(tg, w.clients, s.seed, w.drawWeights(len(s.models)), len(s.models), w.inputsPerModel, window)
		peak = heap.finish()
	} else {
		mainDur := time.Duration(w.openFrac * float64(window))
		main = openLoop(tg, poissonArrivals(streamSeed(s.seed, 0), w.rateRPS, mainDur, s.weights, w.inputsPerModel))
		peak = heap.finish() // the ladder's overload rungs are not the workload
		ladderDur = (window - mainDur) / time.Duration(len(w.ladder))
		for k, mult := range w.ladder {
			lr := openLoop(tg, poissonArrivals(streamSeed(s.seed, 1+k), mult*w.rateRPS, ladderDur, s.weights, w.inputsPerModel))
			_, _, wrong := lr.counts()
			s.wrong += wrong
			ladderRuns = append(ladderRuns, lr)
		}
	}
	d := s.st.counters().sub(base)

	vals := map[string]float64{}
	attempted, failed, wrong := main.counts()
	lat := main.latencies(false)
	vals["throughput_rps"] = main.correctPerSecond()
	vals["latency_p50_ms"] = median(lat)
	vals["setup_s"] = median(s.setupS)
	vals["heap_peak_mb"] = float64(peak) / (1 << 20)

	mode := fmt.Sprintf("closed loop, %d clients", w.clients)
	if !w.closed() {
		mode = fmt.Sprintf("open loop, Poisson %.0f req/s, latency from due time", w.rateRPS)
	}
	rep.linef("load %s: %d requests in %.2fs", mode, attempted, main.elapsed.Seconds())
	rep.linef("metric throughput_rps %.4f 1/s (correct responses per second, n=%d)", vals["throughput_rps"], len(lat))
	rep.linef("metric latency_p50_ms %.4f ms (n=%d)", vals["latency_p50_ms"], len(lat))
	for _, p := range []float64{90, 95, 99} {
		v, beyond, ok := tail(lat, p)
		if !ok {
			rep.linef("metric latency_p%.0f_ms not reported (n=%d, %d beyond; the tail rule needs %d)", p, len(lat), beyond, minBeyond)
			continue
		}
		rep.linef("metric latency_p%.0f_ms %.4f ms (n=%d, %d beyond)", p, v, len(lat), beyond)
	}
	rep.linef("metric error_ratio %.6f ratio (attempted=%d failed=%d wrong=%d)", ratio(float64(failed), float64(attempted)), attempted, failed, wrong)
	rep.linef("metric setup_s %.4f s (median of %d cold set-ups: %s)", vals["setup_s"], len(s.setupS), fmtList(s.setupS, "%.3f"))
	rep.linef("metric heap_peak_mb %.4f MB (peak live heap, sampled every 2ms)", vals["heap_peak_mb"])
	rep.linef("load lag p99 %.4f ms", pct(main.lags(), 99))
	rep.linef("serve: admitted %d shed %d batches %d (%d requests) evictions %d residency denied %d weight peak %d of limit %d bytes",
		d.Admitted, d.Shed, d.Batches, d.BatchedRequests, d.Evictions, d.ResidencyDenied, d.WeightPeakBytes, d.WeightLimit)
	if !w.closed() {
		maxRate := 0.0
		for k, lr := range ladderRuns {
			rate := w.ladder[k] * w.rateRPS
			all := lr.latencies(true)
			p, b := percentile(sortedCopy(all), w.ladderPct)
			drain := lr.elapsed - ladderDur
			pass := p <= w.limitMS && ms(drain) <= w.limitMS
			_, lf, _ := lr.counts()
			rep.linef("ladder rate %.0f req/s: n=%d p%.0f=%.3f ms (%d beyond) misses=%d drain=%.1f ms limit=%.0f ms pass=%v",
				rate, len(all), w.ladderPct, p, b, lf, ms(drain), w.limitMS, pass)
			if !pass {
				break
			}
			maxRate = rate
		}
		rep.linef("metric max_rate_rps %.1f 1/s (highest ladder rate meeting p%.0f <= %.0f ms with no backlog)", maxRate, w.ladderPct, w.limitMS)
	}
	s.wrong += wrong
	return vals, main
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct is the nearest-rank p-th percentile of xs.
func pct(xs []float64, p float64) float64 {
	v, _ := percentile(sortedCopy(xs), p)
	return v
}

func fmtList(xs []float64, f string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(f, x)
	}
	return out
}

// sortedKeys is for deterministic output of maps.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
