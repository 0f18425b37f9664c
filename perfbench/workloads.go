package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ndirect/internal/tensor"
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// build returns the workload's models (built once per process).
	build func() ([]*model, error)
	// weights is each model's request probability (nil: uniform).
	weights func(n int) []float64
	// inputsPerModel distinct seeded inputs are drawn per model.
	inputsPerModel int
	// integerInputs fills inputs with small integers (exact models).
	integerInputs bool
	// clients > 0 runs a closed loop with that many clients; 0 runs
	// the open loop below.
	clients int
	// Open loop: Poisson arrivals at rateRPS, then the ladder of
	// rates (multiples of rateRPS) for max_rate_rps, each rung judged
	// against limitMS at ladderPct.
	rateRPS   float64
	ladder    []float64
	limitMS   float64
	ladderPct float64
	openFrac  float64 // share of the window given to the fixed-rate phase
	// stack is the registry configuration; weightShare > 0 caps the
	// weight budget at that share of the models' total packed bytes.
	stack       stackConfig
	weightShare float64
	setupReps   int
	// Traced run: repetitions per direct forward / unloaded Infer
	// (replayReps) and per unit replay (unitReps); medians are kept.
	replayReps, unitReps int
}

func (w *workload) closed() bool { return w.clients > 0 }

// The edge tenants: four tenants over the three QoS classes.
var edgeTenants = map[string]int{"premium": 2, "std-a": 1, "std-b": 1, "bulk": 0}

// edgeSpecs are the eight edge models, listed in Zipf popularity
// order (the first is requested most).
var edgeSpecs = []edgeSpec{
	{name: "kws-sep", tenant: "premium", cin: 8, mid: 32, out: 32, hw: 16, separable: true},
	{name: "det-conv", tenant: "std-a", cin: 16, mid: 32, out: 32, hw: 14},
	{name: "cls-conv", tenant: "bulk", cin: 8, mid: 24, out: 48, hw: 20},
	{name: "seg-sep", tenant: "std-b", cin: 16, mid: 48, out: 64, hw: 20, separable: true},
	{name: "kws-conv", tenant: "premium", cin: 8, mid: 16, out: 16, hw: 28},
	{name: "det-sep", tenant: "std-a", cin: 16, mid: 64, out: 64, hw: 12, separable: true},
	{name: "seg-conv", tenant: "std-b", cin: 16, mid: 32, out: 64, hw: 8},
	{name: "cls-sep", tenant: "bulk", cin: 8, mid: 24, out: 48, hw: 28, separable: true},
}

// zipfWeights gives rank r (0-based) weight 1/(r+1)^1.1.
func zipfWeights(n int) []float64 {
	ws := make([]float64, n)
	for r := range ws {
		ws[r] = 1 / math.Pow(float64(r+1), 1.1)
	}
	return ws
}

var workloads = []*workload{
	{
		name: "resnet50-blocks",
		why:  "closed loop of 2 clients over five ResNet-50 bottlenecks: standard 1x1/3x3 kernels, stores and fused BN/ReLU from 56x56 to 7x7",
		build: func() ([]*model, error) {
			return resnetBlocks("tenant")
		},
		inputsPerModel: 2,
		clients:        2,
		setupReps:      5,
		replayReps:     9,
		unitReps:       5,
	},
	{
		name: "mobilenet-dsc",
		why:  "closed loop of 2 clients over five MobileNet-v1 separable-block models: fused depthwise->pointwise path, no standard 3x3",
		build: func() ([]*model, error) {
			return mobilenetBlocks("tenant")
		},
		inputsPerModel: 2,
		clients:        2,
		setupReps:      5,
		replayReps:     9,
		unitReps:       5,
	},
	{
		name: "edge-burst",
		why:  "open-loop Poisson burst from 4 QoS tenants over 8 small Zipf-skewed models: gate, batching, weight eviction and re-pack",
		build: func() ([]*model, error) {
			ms := make([]*model, len(edgeSpecs))
			for i, sp := range edgeSpecs {
				sp.weightSeedBase = int64(1000 + 10*i)
				ms[i] = edgeModel(sp)
			}
			return ms, nil
		},
		weights:        zipfWeights,
		inputsPerModel: 4,
		integerInputs:  true,
		ladderPct:      95,
		rateRPS:        120,
		ladder:         []float64{1, 2, 3, 4, 5},
		limitMS:        50,
		openFrac:       0.8,
		stack: stackConfig{
			MaxInFlight:   8,
			MaxQueue:      64,
			BatchWindow:   500 * time.Microsecond,
			Sentinel:      time.Second,
			TenantClasses: edgeTenants,
		},
		weightShare: 0.6,
		setupReps:   11,
		replayReps:  25,
		unitReps:    25,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one draw: model index and input index.
type request struct {
	Model, Input int
}

// drawer turns a seeded stream into requests. With weights it draws
// each model independently by weight; with nil weights it draws every
// one of n models once per block of n requests in a seeded order, so
// the mix, and with it the closed loops' latency percentiles, does not
// drift with the seed.
type drawer struct {
	rng    *rand.Rand
	cum    []float64 // cumulative model weights, normalised to 1
	n      int       // models, for balanced draws
	block  []int     // rest of the current balanced block
	inputs int
}

func newDrawer(seed int64, weights []float64, n, inputs int) *drawer {
	d := &drawer{rng: rand.New(rand.NewSource(seed)), n: n, inputs: inputs}
	if weights == nil {
		return d
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for _, w := range weights {
		total += w
	}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	d.cum = cum
	return d
}

func (d *drawer) next() request {
	m := 0
	if d.cum == nil {
		if len(d.block) == 0 {
			d.block = d.rng.Perm(d.n)
		}
		m, d.block = d.block[0], d.block[1:]
	} else {
		u := d.rng.Float64()
		for m < len(d.cum)-1 && u >= d.cum[m] {
			m++
		}
	}
	return request{Model: m, Input: d.rng.Intn(d.inputs)}
}

// drawWeights is what the drawer gets: nil (balanced) for a uniform
// mix.
func (w *workload) drawWeights(n int) []float64 {
	if w.weights == nil {
		return nil
	}
	return w.weights(n)
}

// modelWeights is w's request probability per model.
func (w *workload) modelWeights(n int) []float64 {
	if w.weights != nil {
		return w.weights(n)
	}
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// streamSeed derives the seed of one request stream (a closed-loop
// client, or one open-loop phase) from the run seed.
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 + 1 }

// arrival is one open-loop request due at offset At from phase start.
type arrival struct {
	At time.Duration
	request
}

// poissonArrivals draws a Poisson arrival schedule at rate over d.
func poissonArrivals(seed int64, rate float64, d time.Duration, weights []float64, inputs int) []arrival {
	dr := newDrawer(seed, weights, len(weights), inputs)
	gaps := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []arrival
	t := 0.0
	for {
		t += gaps.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{At: at, request: dr.next()})
	}
}

// makeInputs draws inputsPerModel seeded inputs for every model.
func makeInputs(w *workload, models []*model, seed int64) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(models))
	for mi, m := range models {
		for k := 0; k < w.inputsPerModel; k++ {
			x := m.newInput()
			rng := rand.New(rand.NewSource(streamSeed(seed, 1000+mi*w.inputsPerModel+k)))
			if w.integerInputs {
				fillInts(x.Data, rng, 2)
			} else {
				for i := range x.Data {
					x.Data[i] = float32(rng.Float64()*2 - 1)
				}
			}
			out[mi] = append(out[mi], x)
		}
	}
	return out
}

// fillInts fills data with integers in [-r, r].
func fillInts(data []float32, rng *rand.Rand, r int) {
	for i := range data {
		data[i] = float32(rng.Intn(2*r+1) - r)
	}
}
