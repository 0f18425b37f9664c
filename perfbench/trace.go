package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the enclosing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, req int64) int64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

func (t *tracer) finish(id int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time in ms: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := int64(0)
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// layerClass is a span name without its instance ("core.unit:x" →
// "core.unit").
func layerClass(name string) string {
	c, _, _ := strings.Cut(name, ":")
	return c
}

// traced runs the traced replay: the workload's load replayed with a
// span around every Infer, then (with the registry's background
// sentinel stopped, so nothing competes for the cores) direct forwards
// and unloaded Infers per model and the layer-by-layer replay of each
// model's first input on core plans, untraced and traced for the
// overhead ratio. It returns the per-layer metrics.
func (s *session) traced(seconds float64, outDir string, rep *report) (map[string]float64, loadResult, error) {
	w, st := s.w, s.st
	n := len(s.models)
	tr := newTracer()
	var reqID atomic.Int64

	base := st.counters()
	tg := s.target(w.requestTimeout())
	tg.around = func(r request, call func()) {
		id := tr.begin("serve.Infer:"+s.models[r.Model].name, 0, reqID.Add(1))
		call()
		tr.finish(id)
	}
	dur := time.Duration(seconds / 2 * float64(time.Second))
	var lr loadResult
	if w.closed() {
		lr = closedLoop(tg, w.clients, s.seed, w.drawWeights(len(s.models)), len(s.models), w.inputsPerModel, dur)
	} else {
		lr = openLoop(tg, poissonArrivals(streamSeed(s.seed, 0), w.rateRPS, dur, s.weights, w.inputsPerModel))
	}
	d := st.counters().sub(base)
	attempted, failed, wrong := lr.counts()
	s.wrong += wrong
	rep.linef("traced load replay: %d requests in %.2fs, %d failed, %d wrong", attempted, lr.elapsed.Seconds(), failed, wrong)
	st.quiesce()

	nnMS := make([]float64, n)
	inferMS := make([]float64, n)
	units := make([][]unitTiming, n)
	var untraced, traced float64
	for mi := range s.models {
		mt, err := s.replayOne(mi, tr, &reqID, rep)
		if err != nil {
			return nil, loadResult{}, err
		}
		nnMS[mi], inferMS[mi], units[mi] = mt.forwardMS, mt.inferMS, mt.units
		untraced += mt.untracedMS
		traced += mt.tracedMS
	}

	var waits []float64
	for _, smp := range lr.samples {
		if smp.ok() {
			waits = append(waits, smp.latMS-inferMS[smp.req.Model])
		}
	}
	vals := aggregate(s.weights, units, nnMS)
	for k := 1; k <= modelSlots; k++ {
		vals[fmt.Sprintf("nn.m%d.ms", k)] = nnMS[k-1]
	}
	p := normalised(s.weights)
	overhead := 0.0
	for mi := range s.models {
		overhead += p[mi] * (inferMS[mi] - nnMS[mi])
	}
	reqs := float64(attempted)
	vals["serve.overhead_ms"] = overhead
	vals["serve.queue_wait_ms"] = mean(waits)
	vals["serve.shed_ratio"] = ratio(float64(d.Shed), reqs)
	vals["serve.batch_fill"] = ratio(float64(d.BatchedRequests), float64(d.Admitted))
	vals["serve.batch_size"] = ratio(float64(d.BatchedRequests), float64(d.Batches))
	vals["serve.evictions_per_kreq"] = ratio(1000*float64(d.Evictions), reqs)
	vals["serve.residency_denied"] = float64(d.ResidencyDenied)
	all := st.counters()
	vals["serve.plan_miss_ratio"] = ratio(float64(all.PlanMisses), float64(all.PlanHits+all.PlanMisses))
	vals["serve.sentinel_probes"] = float64(d.SentinelProbes)
	vals["serve.reference_infers"] = float64(d.ReferenceInfers)
	vals["parallel.spawned_per_req"] = ratio(float64(d.PoolSpawned), reqs)
	vals["parallel.dispatched_per_req"] = ratio(float64(d.PoolDispatched), reqs)
	vals["load.lag_p99_ms"] = pct(lr.lags(), 99)
	vals["trace.overhead_ratio"] = ratio(traced, untraced)

	for mi, m := range s.models {
		rep.linef("model %s: weight %.3f direct forward p50 %.4f ms, unloaded Infer p50 %.4f ms", m.name, p[mi], nnMS[mi], inferMS[mi])
		for _, u := range units[mi] {
			rep.linef("  unit %s: %.1f MFLOP wall %.4f ms (%.2f GFLOP/s) kernel %.4f pack %.4f store %.4f transform %.4f CPU-ms; plan %.3f ms repack %.1f us%s",
				u.Name, float64(u.FLOPs)/1e6, u.WallMS, float64(u.FLOPs)/u.WallMS/1e6, u.KernelMS, u.PackMS, u.StoreMS, u.TransformMS, u.PlanMS, u.RepackUS,
				sepNote(u))
		}
	}
	self := selfTimes(tr.spans)
	byClass := map[string]float64{}
	for name, v := range self {
		byClass[layerClass(name)] += v
	}
	for _, c := range sortedKeys(byClass) {
		rep.linef("self time %s: %.3f ms", c, byClass[c])
	}
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, s.seed))
		if err := writeJSON(path, map[string]any{"spans": tr.spans, "self_ms": self, "self_ms_by_class": byClass}); err != nil {
			return nil, loadResult{}, err
		}
		rep.SpanFile = path
		rep.linef("spans: %d written to %s", len(tr.spans), path)
	}
	return vals, lr, nil
}

// modelTimes is one model's traced-run measurements.
type modelTimes struct {
	forwardMS, inferMS   float64 // direct forward and unloaded Infer, median
	units                []unitTiming
	untracedMS, tracedMS float64 // two layer-by-layer walks without and two with spans
}

// replayOne measures model mi on its first input. Direct forwards and
// replays run on a detached copy: sharing the served units' packed
// filters would bypass the registry's weight accounting.
func (s *session) replayOne(mi int, tr *tracer, reqID *atomic.Int64, rep *report) (modelTimes, error) {
	var mt modelTimes
	served := s.models[mi]
	m, err := served.detached()
	if err != nil {
		return mt, err
	}
	threads, reps := s.cfg.Threads, s.w.replayReps
	eng := directEngine(threads)
	x := s.inputs[mi][0]
	r := request{Model: mi}
	out, err := eng.forward(m, x)
	if err != nil {
		return mt, fmt.Errorf("direct forward %s: %w", m.name, err)
	}
	if !s.gold.check(r, out) {
		s.wrong++
		rep.linef("check %s: direct forward differs from the served response", m.name)
	}
	// Alternate the two so drift in the host's speed hits both alike.
	var fwdT, inferT []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := eng.forward(m, x); err != nil {
			return mt, err
		}
		fwdT = append(fwdT, ms(time.Since(t)))
		t = time.Now()
		if _, err := s.st.infer(context.Background(), served, x); err != nil {
			return mt, err
		}
		inferT = append(inferT, ms(time.Since(t)))
	}
	mt.forwardMS, mt.inferMS = median(fwdT), median(inferT)

	// The walk runs traced, untraced, untraced, traced, so warm-up and
	// drift in the host's speed weigh on both sides of the overhead
	// ratio alike.
	walk := func(traced bool) error {
		var span layerSpan
		var root, req int64
		if traced {
			req = reqID.Add(1)
			root = tr.begin("replay:"+m.name, 0, req)
			span = func(name string) func() {
				id := tr.begin(name, root, req)
				return func() { tr.finish(id) }
			}
		}
		t := time.Now()
		got, units, err := replayModel(eng, m, x, threads, s.w.unitReps, span)
		if traced {
			mt.tracedMS += ms(time.Since(t))
			tr.finish(root)
		} else {
			mt.untracedMS += ms(time.Since(t))
		}
		if err != nil {
			return err
		}
		if !s.gold.check(r, got) {
			s.wrong++
			rep.linef("check %s: layer-by-layer replay differs from the served response", m.name)
		}
		if !traced && mt.units == nil {
			mt.units = units
		}
		return nil
	}
	for _, traced := range []bool{true, false, false, true} {
		if err := walk(traced); err != nil {
			return mt, err
		}
	}
	return mt, nil
}

func sepNote(u unitTiming) string {
	if !u.Separable {
		return ""
	}
	return fmt.Sprintf(" | unfused dw %.4f + pw %.4f ms = %.2fx fused", u.DWMS, u.PWMS, (u.DWMS+u.PWMS)/u.WallMS)
}

func normalised(ws []float64) []float64 {
	t := 0.0
	for _, w := range ws {
		t += w
	}
	p := make([]float64, len(ws))
	for i, w := range ws {
		p[i] = w / t
	}
	return p
}

// aggregate turns per-model unit timings into per-request core and nn
// metrics, weighting each model by its request probability.
func aggregate(weights []float64, units [][]unitTiming, nnMS []float64) map[string]float64 {
	p := normalised(weights)
	var kern, pack, store, transform, flops, bytes, wall, dw, pw, fused, glue, fwd float64
	var repack, plan float64
	filters := 0
	for mi, us := range units {
		served := 0.0
		for _, u := range us {
			kern += p[mi] * u.KernelMS
			pack += p[mi] * u.PackMS
			store += p[mi] * u.StoreMS
			transform += p[mi] * u.TransformMS
			flops += p[mi] * float64(u.FLOPs)
			bytes += p[mi] * float64(u.Bytes)
			wall += p[mi] * u.WallMS
			served += u.WallMS
			if u.Separable {
				dw += p[mi] * u.DWMS
				pw += p[mi] * u.PWMS
				fused += p[mi] * u.WallMS
			}
			repack += u.RepackUS
			plan += u.PlanMS
			filters += u.Filters
		}
		glue += p[mi] * (nnMS[mi] - served)
		fwd += p[mi] * nnMS[mi]
	}
	return map[string]float64{
		"core.kernel_ms":       kern,
		"core.pack_ms":         pack,
		"core.store_ms":        store,
		"core.transform_ms":    transform,
		"core.store_share":     ratio(store, kern+pack+store),
		"core.gflops":          ratio(flops, wall) / 1e6,
		"core.bytes_per_flop":  ratio(bytes, flops),
		"core.dw_ms":           dw,
		"core.sep_fused_ratio": ratio(dw+pw, fused),
		"core.repack_us":       ratio(repack, float64(filters)),
		"core.plan_build_ms":   plan,
		"nn.glue_share":        ratio(glue, fwd),
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
