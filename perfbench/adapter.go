package main

// adapter.go is the benchmark's only door into the program: every call
// into internal/serve, nn, core and parallel lives in this file. The
// rest of the benchmark sees the small types declared here (stack,
// model, engine, counters, unitTiming), so a change to those packages'
// APIs edits this file alone.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// stackConfig is one workload's registry configuration. It is recorded
// in every result record, so rows from different configs are never
// compared.
type stackConfig struct {
	Threads          int            `json:"threads"`
	MaxInFlight      int            `json:"max_in_flight"`
	MaxQueue         int            `json:"max_queue"`
	BatchWindow      time.Duration  `json:"batch_window_ns"` // 0: batching off
	WeightLimitBytes int64          `json:"weight_limit_bytes"`
	Sentinel         time.Duration  `json:"sentinel_interval_ns"` // 0: sentinel off
	TenantClasses    map[string]int `json:"tenant_classes"`       // tenant → QoS class (0 batch … 2 premium)
}

// stack is one serving registry with its runtime.
type stack struct {
	rt  *serve.Runtime
	reg *serve.Registry
}

func newStack(cfg stackConfig) *stack {
	rt := serve.New(serve.Config{
		MaxInFlight:      cfg.MaxInFlight,
		MaxQueue:         cfg.MaxQueue,
		BatchWindow:      cfg.BatchWindow,
		Options:          core.Options{Threads: cfg.Threads},
		SentinelInterval: cfg.Sentinel,
	})
	tenants := map[string]serve.TenantConfig{}
	for t, c := range cfg.TenantClasses {
		tenants[t] = serve.TenantConfig{Class: serve.QoSClass(c)}
	}
	reg := serve.NewRegistry(serve.RegistryConfig{
		Runtime:          rt,
		MaxInFlight:      cfg.MaxInFlight,
		MaxQueue:         cfg.MaxQueue,
		WeightLimitBytes: cfg.WeightLimitBytes,
		Tenants:          tenants,
	})
	return &stack{rt: rt, reg: reg}
}

func (s *stack) register(m *model) error { return s.reg.Register(m.tenant, m.name, m.net) }

func (s *stack) infer(ctx context.Context, m *model, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.reg.Infer(ctx, m.tenant, m.name, x)
}

// teardown unregisters every model (retiring their packed weights and
// plan memos, so the next stack starts cold) and stops the runtime.
func (s *stack) teardown(models []*model) {
	for _, m := range models {
		_ = s.reg.Unregister(m.tenant, m.name) // a model that failed to register has nothing to retire
	}
	s.rt.Close()
}

// quiesce stops the runtime's background sentinel; Infer keeps working.
func (s *stack) quiesce() { s.rt.Close() }

// counters is the flattened subset of serve/parallel/core counters the
// benchmark reads.
type counters struct {
	Admitted, Shed               uint64
	Batches, BatchedRequests     uint64
	Evictions, ResidencyDenied   uint64
	ReferenceInfers              uint64
	SentinelProbes               uint64
	PlanHits, PlanMisses         uint64
	PoolDispatched, PoolSpawned  uint64
	WeightPeakBytes, WeightLimit int64
}

func (s *stack) counters() counters {
	st := s.reg.Stats()
	c := counters{
		Batches:         st.Runtime.BatchesExecuted,
		BatchedRequests: st.Runtime.BatchedRequests,
		Evictions:       st.Evictions,
		ResidencyDenied: st.ResidencyDenied,
		ReferenceInfers: st.ReferenceInfers,
		SentinelProbes:  st.Runtime.SentinelProbes,
		PlanHits:        st.Runtime.PlanCache.Hits,
		PlanMisses:      st.Runtime.PlanCache.Misses,
		PoolDispatched:  st.Runtime.WorkerPool.Dispatched,
		PoolSpawned:     st.Runtime.WorkerPool.Spawned,
		WeightPeakBytes: st.WeightPeak,
		WeightLimit:     st.WeightLimit,
	}
	for cl := 0; cl < serve.NumQoSClasses; cl++ {
		c.Admitted += st.Gate.Admitted[cl]
		c.Shed += st.Gate.ShedFull[cl] + st.Gate.ShedLate[cl]
	}
	c.Shed += st.Gate.TenantCapRejs
	return c
}

// sub returns the counter deltas c − base (the Weight* fields keep c's
// values: they are levels, not counts).
func (c counters) sub(base counters) counters {
	d := c
	d.Admitted -= base.Admitted
	d.Shed -= base.Shed
	d.Batches -= base.Batches
	d.BatchedRequests -= base.BatchedRequests
	d.Evictions -= base.Evictions
	d.ResidencyDenied -= base.ResidencyDenied
	d.ReferenceInfers -= base.ReferenceInfers
	d.SentinelProbes -= base.SentinelProbes
	d.PlanHits -= base.PlanHits
	d.PlanMisses -= base.PlanMisses
	d.PoolDispatched -= base.PoolDispatched
	d.PoolSpawned -= base.PoolSpawned
	return d
}

// --- Models ---

// model is one registered network and the geometry of its input.
type model struct {
	name    string
	tenant  string
	net     *nn.Network
	c, h, w int  // input channels and spatial size (batch 1)
	integer bool // integer weights: exact against the float64 reference
}

func (m *model) newInput() *tensor.Tensor { return tensor.New(1, m.c, m.h, m.w) }

// resnetBlocks returns the five single-bottleneck ResNet-50 models of
// the resnet-blocks workload, He-initialised as nn.ResNet50 builds them.
func resnetBlocks(tenant string) ([]*model, error) {
	full := nn.ResNet50()
	var out []*model
	for _, name := range []string{"stage1_block1", "stage2_block0", "stage2_block1", "stage3_block1", "stage4_block1"} {
		l := findLayer(full, name)
		bk, ok := l.(*nn.Bottleneck)
		if !ok {
			return nil, fmt.Errorf("resnet50: no bottleneck %s", name)
		}
		s := bk.Conv1.Shape
		out = append(out, &model{name: name, tenant: tenant, c: s.C, h: s.H, w: s.W,
			net: &nn.Network{Name: name, Layers: []nn.Layer{bk}}})
	}
	return out, nil
}

// mobilenetBlocks returns the five MobileNet-v1 separable-block models
// of the mobilenet-dsc workload.
func mobilenetBlocks(tenant string) ([]*model, error) {
	full := nn.MobileNetV1()
	var out []*model
	for _, group := range [][]string{{"dsc2"}, {"dsc3"}, {"dsc5"}, {"dsc7", "dsc8"}, {"dsc12", "dsc13"}} {
		var layers []nn.Layer
		for _, name := range group {
			d, ok := findLayer(full, name).(*nn.DepthwiseSeparable)
			if !ok {
				return nil, fmt.Errorf("mobilenet: no separable block %s", name)
			}
			layers = append(layers, d)
		}
		name := group[0]
		if len(group) > 1 {
			name += "-" + group[len(group)-1][3:]
		}
		s := layers[0].(*nn.DepthwiseSeparable).DWShape
		out = append(out, &model{name: name, tenant: tenant, c: s.C, h: s.H, w: s.W,
			net: &nn.Network{Name: name, Layers: layers}})
	}
	return out, nil
}

// detached returns a copy of m sharing its weights but none of its
// serving state (packed filters, plan memos), so direct forwards and
// replays on the copy never touch the registry's weight residency.
func (m *model) detached() (*model, error) {
	c := *m
	layers := make([]nn.Layer, len(m.net.Layers))
	for i, l := range m.net.Layers {
		var err error
		if layers[i], err = detachLayer(l); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
	}
	c.net = &nn.Network{Name: m.net.Name, Layers: layers}
	return &c, nil
}

func detachUnit(u *nn.ConvUnit) *nn.ConvUnit {
	if u == nil {
		return nil
	}
	return &nn.ConvUnit{LayerName: u.LayerName, Shape: u.Shape, Weights: u.Weights, Bias: u.Bias, BN: u.BN, ReLU: u.ReLU}
}

func detachLayer(l nn.Layer) (nn.Layer, error) {
	switch v := l.(type) {
	case *nn.ConvUnit:
		return detachUnit(v), nil
	case *nn.Bottleneck:
		return &nn.Bottleneck{LayerName: v.LayerName, Conv1: detachUnit(v.Conv1), Conv2: detachUnit(v.Conv2),
			Conv3: detachUnit(v.Conv3), Downsample: detachUnit(v.Downsample)}, nil
	case *nn.DepthwiseSeparable:
		return &nn.DepthwiseSeparable{LayerName: v.LayerName, DWShape: v.DWShape, DWFilter: v.DWFilter,
			DWBN: v.DWBN, PW: detachUnit(v.PW)}, nil
	case *nn.MaxPool:
		mp := *v
		return &mp, nil
	}
	return nil, fmt.Errorf("layer %s: no detached copy for %T", l.Name(), l)
}

func findLayer(n *nn.Network, name string) nn.Layer {
	for _, l := range n.Layers {
		if l.Name() == name {
			return l
		}
	}
	return nil
}

// edgeSpec describes one small integer-weight edge model: a 3×3 conv
// (cin→mid, ReLU), then either a second 3×3 conv (mid→out) or a
// depthwise-separable block (mid→out), then a 2×2 max pool.
type edgeSpec struct {
	name, tenant   string
	cin, mid, out  int
	hw             int
	separable      bool
	weightSeedBase int64
}

// edgeModel builds the integer-weight network of spec. Weights and
// inputs are small integers and every batch norm is an exact identity
// (Eps 0), so every partial sum is an integer below 2^24 and the
// float32 fast path must equal the float64 reference bit for bit.
func edgeModel(sp edgeSpec) *model {
	rng := rand.New(rand.NewSource(sp.weightSeedBase))
	s1 := conv.Shape{N: 1, C: sp.cin, H: sp.hw, W: sp.hw, K: sp.mid, R: 3, S: 3, Str: 1, Pad: 1}
	w1 := s1.NewFilter()
	fillInts(w1.Data, rng, 2)
	layers := []nn.Layer{&nn.ConvUnit{LayerName: "conv1", Shape: s1, Weights: w1, ReLU: true}}
	if sp.separable {
		dwShape := conv.Shape{N: 1, C: sp.mid, H: sp.hw, W: sp.hw, K: sp.mid, R: 3, S: 3, Str: 1, Pad: 1}
		dw := tensor.New(sp.mid, 3, 3)
		fillInts(dw.Data, rng, 2)
		pwShape := conv.Shape{N: 1, C: sp.mid, H: sp.hw, W: sp.hw, K: sp.out, R: 1, S: 1, Str: 1, Pad: 0}
		pw := pwShape.NewFilter()
		fillInts(pw.Data, rng, 2)
		layers = append(layers, &nn.DepthwiseSeparable{
			LayerName: "dwsep",
			DWShape:   dwShape,
			DWFilter:  dw,
			DWBN:      exactIdentityBN(sp.mid),
			PW:        &nn.ConvUnit{LayerName: "dwsep_pw", Shape: pwShape, Weights: pw, BN: exactIdentityBN(sp.out), ReLU: true},
		})
	} else {
		s2 := conv.Shape{N: 1, C: sp.mid, H: sp.hw, W: sp.hw, K: sp.out, R: 3, S: 3, Str: 1, Pad: 1}
		w2 := s2.NewFilter()
		fillInts(w2.Data, rng, 2)
		layers = append(layers, &nn.ConvUnit{LayerName: "conv2", Shape: s2, Weights: w2, BN: exactIdentityBN(sp.out), ReLU: true})
	}
	layers = append(layers, &nn.MaxPool{K: 2, Str: 2})
	return &model{name: sp.name, tenant: sp.tenant, c: sp.cin, h: sp.hw, w: sp.hw, integer: true,
		net: &nn.Network{Name: sp.name, Layers: layers}}
}

// exactIdentityBN folds to scale exactly 1 and shift exactly 0.
func exactIdentityBN(c int) *nn.BNParams {
	bn := &nn.BNParams{Gamma: make([]float32, c), Beta: make([]float32, c), Mean: make([]float32, c), Var: make([]float32, c)}
	for i := range bn.Gamma {
		bn.Gamma[i], bn.Var[i] = 1, 1
	}
	return bn
}

// --- Engines: oracle and direct forward ---

// engine is an opaque nn engine for direct (registry-free) forwards.
type engine struct{ eng *nn.Engine }

// directEngine is a private Reuse engine: the registry's fast path
// without admission, batching or residency accounting.
func directEngine(threads int) engine {
	return engine{&nn.Engine{Algo: nn.AlgoNDirect, Threads: threads, Reuse: true}}
}

func (e engine) forward(m *model, x *tensor.Tensor) (*tensor.Tensor, error) {
	return m.net.TryForward(e.eng, x)
}

// oracleTolerance bounds max|fast − oracle| / max|fast| for the
// He-initialised models, whose oracle (im2col+GEMM, depthwise plane
// loop) accumulates in a different order. Integer models get 0.
const oracleTolerance = 1e-4

// oracle computes m's output on an independent backend: the float64
// reference engine for integer models (exact), im2col+GEMM for the
// He-initialised ones (within oracleTolerance).
func oracle(m *model, x *tensor.Tensor, threads int) (*tensor.Tensor, float64, error) {
	if m.integer {
		out, err := m.net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1, ForceReference: true}, x)
		return out, 0, err
	}
	out, err := m.net.TryForward(&nn.Engine{Algo: nn.AlgoIm2col, Threads: threads}, x)
	return out, oracleTolerance, err
}

// relDiff is max|a−b| / max|a| (NaN-safe: any NaN makes it +Inf).
func relDiff(a, b *tensor.Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	d := tensor.RelDiff(a, b)
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d
}

// --- Layer-by-layer replay (traced run) ---

// unitTiming is one conv or separable unit of a model, re-run on core
// plans outside the serving stack.
type unitTiming struct {
	Name      string
	Separable bool
	FLOPs     int64
	Bytes     int64 // input + filters + output, float32
	PlanMS    float64
	RepackUS  float64 // TransformFilter(s) of this unit
	Filters   int
	// Served form, untraced: a standard unit on a packed plan, a
	// separable unit on its fused plan.
	WallMS float64
	// CollectStats stage CPU time (summed over workers) of the packed
	// standard plan (the pointwise plan of a separable unit), replayed
	// with sequential packing so pack and kernel time separate.
	KernelMS, PackMS, StoreMS float64
	// TransformMS is the on-the-fly filter transform of an unpacked run.
	TransformMS float64
	// Separable units only: the unfused composition's two stages.
	DWMS, PWMS float64
}

// layerSpan reports one layer of a traced replay to the tracer.
type layerSpan func(name string) (end func())

// replayModel walks m's layers one by one from the outside on eng,
// timing each conv and separable unit on fresh core plans (reps
// repetitions, median). span, when non-nil, brackets every layer and
// unit. It returns the model's output and the per-unit timings.
func replayModel(eng engine, m *model, x *tensor.Tensor, threads, reps int, span layerSpan) (*tensor.Tensor, []unitTiming, error) {
	var units []unitTiming
	enter := func(name string) func() {
		if span == nil {
			return func() {}
		}
		return span(name)
	}
	one := func(l nn.Layer, in *tensor.Tensor) (*tensor.Tensor, error) {
		return (&nn.Network{Name: l.Name(), Layers: []nn.Layer{l}}).TryForward(eng.eng, in)
	}
	convUnit := func(u *nn.ConvUnit, in *tensor.Tensor) (*tensor.Tensor, error) {
		done := enter("core.unit:" + u.LayerName)
		ut, err := replayConv(u, in, threads, reps)
		done()
		if err != nil {
			return nil, err
		}
		units = append(units, ut)
		done = enter("nn.layer:" + u.LayerName)
		defer done()
		return one(u, in)
	}
	cur := x
	for _, l := range m.net.Layers {
		var next *tensor.Tensor
		var err error
		switch v := l.(type) {
		case *nn.ConvUnit:
			next, err = convUnit(v, cur)
		case *nn.Bottleneck:
			identity := cur
			if v.Downsample != nil {
				if identity, err = convUnit(v.Downsample, cur); err != nil {
					break
				}
			}
			var y1, y2 *tensor.Tensor
			if y1, err = convUnit(v.Conv1, cur); err != nil {
				break
			}
			if y2, err = convUnit(v.Conv2, y1); err != nil {
				break
			}
			if next, err = convUnit(v.Conv3, y2); err != nil {
				break
			}
			done := enter("nn.glue:" + v.LayerName)
			// The block's residual add and ReLU, in nn's order.
			for i, s := range identity.Data {
				next.Data[i] += s
				if next.Data[i] < 0 {
					next.Data[i] = 0
				}
			}
			done()
		case *nn.DepthwiseSeparable:
			done := enter("core.unit:" + v.LayerName)
			var ut unitTiming
			ut, err = replaySeparable(v, cur, threads, reps)
			done()
			if err != nil {
				break
			}
			units = append(units, ut)
			done = enter("nn.layer:" + v.LayerName)
			next, err = one(v, cur)
			done()
		default:
			done := enter("nn.layer:" + l.Name())
			next, err = one(l, cur)
			done()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", m.name, l.Name(), err)
		}
		cur = next
	}
	return cur, units, nil
}

// fusedEpilogue mirrors the unit's bias/BN/ReLU as a core epilogue.
func fusedEpilogue(bias []float32, bn *nn.BNParams, k int, relu bool) *core.EpilogueParams {
	if bias == nil && bn == nil && !relu {
		return nil
	}
	ep := &core.EpilogueParams{Bias: bias, ReLU: relu}
	if bn != nil {
		ep.Scale, ep.Shift = make([]float32, k), make([]float32, k)
		for i := range ep.Scale {
			sc := bn.Gamma[i] / float32(math.Sqrt(float64(bn.Var[i])+float64(bn.Eps)))
			ep.Scale[i], ep.Shift[i] = sc, bn.Beta[i]-bn.Mean[i]*sc
		}
	}
	return ep
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timeReps runs fn reps times and returns the median wall time in ms.
func timeReps(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, sinceMS(t))
	}
	return median(ts), nil
}

// replayConv times one standard conv unit on fresh core plans: plan
// build, filter pack, the packed run untraced (wall) and with
// CollectStats (stage CPU time), and an unpacked run for the
// on-the-fly transform.
func replayConv(u *nn.ConvUnit, x *tensor.Tensor, threads, reps int) (unitTiming, error) {
	s := u.Shape.WithBatch(x.Dims[0])
	ep := fusedEpilogue(u.Bias, u.BN, s.K, u.ReLU)
	ut := unitTiming{Name: u.LayerName, FLOPs: s.FLOPs(), Filters: 1,
		Bytes: s.InputBytes() + s.FilterBytes() + s.OutputBytes()}
	t := time.Now()
	plan, err := core.TryNewPlan(s, core.Options{Threads: threads, FusedEpilogue: ep})
	if err != nil {
		return ut, err
	}
	ut.PlanMS = sinceMS(t)
	t = time.Now()
	pf, err := plan.TransformFilter(u.Weights)
	if err != nil {
		return ut, err
	}
	ut.RepackUS = sinceMS(t) * 1e3
	out := tensor.New(s.N, s.K, s.P(), s.Q())
	if ut.WallMS, err = timeReps(reps, func() error { return plan.TryExecutePacked(x, pf, out) }); err != nil {
		return ut, err
	}
	// The served plan overlaps input packing with the kernel (§5.3), so
	// the stage split comes from the same plan with packing sequential.
	statsPlan, err := core.TryNewPlan(s, core.Options{Threads: threads, FusedEpilogue: ep, CollectStats: true, SequentialPack: true})
	if err != nil {
		return ut, err
	}
	spf, err := statsPlan.TransformFilter(u.Weights)
	if err != nil {
		return ut, err
	}
	var kern, pack, store []float64
	for i := 0; i < reps; i++ {
		if err := statsPlan.TryExecutePacked(x, spf, out); err != nil {
			return ut, err
		}
		st := statsPlan.LastStats()
		kern, pack, store = append(kern, st.KernelSec*1e3), append(pack, st.PackSec*1e3), append(store, st.StoreSec*1e3)
	}
	ut.KernelMS, ut.PackMS, ut.StoreMS = median(kern), median(pack), median(store)
	if err := statsPlan.TryExecute(x, u.Weights, out); err != nil {
		return ut, err
	}
	ut.TransformMS = statsPlan.LastStats().TransformSec * 1e3
	return ut, nil
}

// replaySeparable times one depthwise-separable block: the fused plan
// as served, and the unfused composition (DepthwisePlan, then the
// pointwise unit replayed as a standard conv).
func replaySeparable(d *nn.DepthwiseSeparable, x *tensor.Tensor, threads, reps int) (unitTiming, error) {
	dws, pws := d.DWShape, d.PW.Shape
	ss := core.SeparableShape{N: x.Dims[0], C: dws.C, H: dws.H, W: dws.W, K: pws.K, R: dws.R, S: dws.S, Str: dws.Str, Pad: dws.Pad}
	dwShape := ss.DWShape()
	dwFLOPs := 2 * int64(ss.N) * int64(ss.C) * int64(ss.P()) * int64(ss.Q()) * int64(ss.R) * int64(ss.S)
	ut := unitTiming{Name: d.LayerName, Separable: true, Filters: 2,
		FLOPs: dwFLOPs + ss.PWShape().FLOPs(),
		Bytes: dwShape.InputBytes() + 4*int64(ss.C*ss.R*ss.S) + ss.PWShape().FilterBytes() + ss.PWShape().OutputBytes()}
	dwEp := fusedEpilogue(nil, d.DWBN, ss.C, true)
	pwEp := fusedEpilogue(d.PW.Bias, d.PW.BN, ss.K, d.PW.ReLU)
	t := time.Now()
	plan, err := core.TryNewSeparablePlan(ss, core.Options{Threads: threads, DepthwiseEpilogue: dwEp, FusedEpilogue: pwEp})
	if err != nil {
		return ut, err
	}
	ut.PlanMS = sinceMS(t)
	t = time.Now()
	pdw, ppw, err := plan.TransformFilters(d.DWFilter, d.PW.Weights)
	if err != nil {
		return ut, err
	}
	ut.RepackUS = sinceMS(t) * 1e3
	out := tensor.New(ss.N, ss.K, ss.P(), ss.Q())
	if ut.WallMS, err = timeReps(reps, func() error { return plan.TryExecutePacked(x, pdw, ppw, out) }); err != nil {
		return ut, err
	}
	dwPlan, err := core.TryNewDepthwisePlan(dwShape, core.Options{Threads: threads, FusedEpilogue: dwEp})
	if err != nil {
		return ut, err
	}
	dpf, err := dwPlan.TransformFilter(d.DWFilter)
	if err != nil {
		return ut, err
	}
	mid := tensor.New(ss.N, ss.C, ss.P(), ss.Q())
	if ut.DWMS, err = timeReps(reps, func() error { return dwPlan.TryExecutePacked(x, dpf, mid) }); err != nil {
		return ut, err
	}
	pw, err := replayConv(d.PW, mid, threads, reps)
	if err != nil {
		return ut, err
	}
	ut.PWMS = pw.WallMS
	ut.KernelMS, ut.PackMS, ut.StoreMS, ut.TransformMS = pw.KernelMS, pw.PackMS, pw.StoreMS, pw.TransformMS
	return ut, nil
}

// gomaxprocs is the worker count every workload runs with.
func gomaxprocs() int { return parallel.DefaultThreads() }
