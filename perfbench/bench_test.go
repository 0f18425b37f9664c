package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ndirect/internal/tensor"
)

func TestSameSeedSameRequestsAndInputs(t *testing.T) {
	ws := zipfWeights(8)
	a, b := newDrawer(streamSeed(7, 0), ws, 8, 4), newDrawer(streamSeed(7, 0), ws, 8, 4)
	other := newDrawer(streamSeed(8, 0), ws, 8, 4)
	differ := false
	for i := 0; i < 1000; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra != rb {
			t.Fatalf("request %d: %v vs %v from the same seed", i, ra, rb)
		}
		differ = differ || ra != ro
	}
	if !differ {
		t.Fatal("seeds 7 and 8 drew the same 1000 requests")
	}

	// Balanced draws: every block of 5 holds each model once, in a
	// seeded order.
	ba, bb := newDrawer(streamSeed(7, 0), nil, 5, 2), newDrawer(streamSeed(7, 0), nil, 5, 2)
	for blk := 0; blk < 20; blk++ {
		seen := map[int]bool{}
		for i := 0; i < 5; i++ {
			ra, rb := ba.next(), bb.next()
			if ra != rb {
				t.Fatalf("balanced block %d: %v vs %v from the same seed", blk, ra, rb)
			}
			seen[ra.Model] = true
		}
		if len(seen) != 5 {
			t.Fatalf("balanced block %d drew models %v, want all 5", blk, seen)
		}
	}

	pa := poissonArrivals(streamSeed(7, 1), 400, time.Second, ws, 4)
	pb := poissonArrivals(streamSeed(7, 1), 400, time.Second, ws, 4)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("open-loop schedules differ for the same seed")
	}
	if n := len(pa); n < 300 || n > 500 {
		t.Fatalf("%d arrivals in 1s at 400/s", n)
	}

	w, err := workloadByName("edge-burst")
	if err != nil {
		t.Fatal(err)
	}
	models, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	ia, ib, io := makeInputs(w, models, 7), makeInputs(w, models, 7), makeInputs(w, models, 8)
	if !reflect.DeepEqual(ia, ib) {
		t.Fatal("inputs differ for the same seed")
	}
	if reflect.DeepEqual(ia, io) {
		t.Fatal("seeds 7 and 8 drew the same inputs")
	}
}

func TestTailRule(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{200, 95, 190, 10, true},
		{199, 95, 190, 9, false},
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{100, 90, 90, 10, true},
		{5, 50, 3, 2, false},
	} {
		v, beyond, ok := tail(xs(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p%.0f: got (%v, %d beyond, ok=%v), want (%v, %d, %v)", tc.n, tc.p, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
}

// fakeTarget serves requests one at a time, taking service per request,
// and returns out.
func fakeTarget(service time.Duration, out *tensor.Tensor, gold *goldens) *target {
	var mu sync.Mutex
	return &target{
		gold:    gold,
		timeout: time.Minute,
		infer: func(ctx context.Context, r request) (*tensor.Tensor, error) {
			mu.Lock()
			defer mu.Unlock()
			time.Sleep(service)
			return out, nil
		},
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	out := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	gold := newGoldens(1, 1)
	gold.set(request{}, out)
	// Ten requests due at once against a server that takes 20ms each:
	// the k-th waits for k−1 others, and its latency, timed from the
	// due time, must include that wait.
	arrivals := make([]arrival, 10)
	lr := openLoop(fakeTarget(20*time.Millisecond, out, gold), arrivals)
	lat := lr.latencies(false)
	if len(lat) != 10 {
		t.Fatalf("%d correct responses, want 10", len(lat))
	}
	sorted := sortedCopy(lat)
	if sorted[9] < 10*20 {
		t.Fatalf("slowest latency %.1fms: queueing behind 9 others is not counted from the due time", sorted[9])
	}
	for _, s := range lr.samples {
		if s.lagMS < 0 || s.latMS < s.lagMS {
			t.Fatalf("lag %.3fms, latency %.3fms: lag must be >= 0 and inside the latency", s.lagMS, s.latMS)
		}
	}
	// A generator that sends 5ms late reports 5ms of lag, and the
	// request's latency still runs from its due time.
	due := time.Now()
	latMS, lagMS := fromDue(due, due.Add(5*time.Millisecond), due.Add(12*time.Millisecond))
	if latMS != 12 || lagMS != 5 {
		t.Fatalf("latency %.3fms lag %.3fms, want 12 and 5", latMS, lagMS)
	}
}

func TestCheckFailsOnPerturbedOutput(t *testing.T) {
	want := tensor.FromSlice([]float32{1, -2, 0, 4.5}, 1, 4)
	gold := newGoldens(2, 2)
	r := request{Model: 1, Input: 1}
	if !gold.set(r, want) {
		t.Fatal("first response must become the golden")
	}
	if !gold.check(r, want.Clone()) {
		t.Fatal("identical response rejected")
	}
	for i, perturb := range []func(d []float32){
		func(d []float32) { d[3] = math.Nextafter32(d[3], 10) },
		func(d []float32) { d[2] = float32(math.Copysign(0, -1)) },
		func(d []float32) { d[0] = float32(math.NaN()) },
	} {
		bad := want.Clone()
		perturb(bad.Data)
		if gold.check(r, bad) {
			t.Errorf("perturbation %d passed the bit-identity check", i)
		}
		if gold.set(r, bad) {
			t.Errorf("perturbation %d replaced or matched the golden", i)
		}
	}
	if gold.check(request{}, want) {
		t.Fatal("a response with no golden passed")
	}

	// A wrong response in a load phase is counted as wrong and failed.
	bad := want.Clone()
	bad.Data[0]++
	gold1 := newGoldens(1, 1)
	gold1.set(request{}, want)
	lr := closedLoop(fakeTarget(time.Millisecond, bad, gold1), 1, 1, nil, 1, 1, 20*time.Millisecond)
	attempted, failed, wrong := lr.counts()
	if attempted == 0 || failed != attempted || wrong != attempted {
		t.Fatalf("attempted %d failed %d wrong %d: every perturbed response must count as wrong", attempted, failed, wrong)
	}

	// Outside the oracle tolerance.
	d := relDiff(bad, want)
	if d <= oracleTolerance {
		t.Fatalf("rel diff %g of a perturbed output is inside the oracle tolerance", d)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for i, w := range spec.Workloads {
		listed = append(listed, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and the code", w.Name)
		}
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, listed)
	}
	same := func(what string, code []metricSpec, listed []struct{ Name, Unit string }) {
		var c, l []string
		for _, m := range code {
			c = append(c, m.Name+" "+m.Unit)
		}
		for _, m := range listed {
			l = append(l, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(c, l) {
			t.Errorf("%s metrics: code %v, BENCHMARK.json %v", what, c, l)
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// TestRunEmitsListedMetrics runs a short edge-burst end to end, untraced
// and traced, and checks the result line.
func TestRunEmitsListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	for _, tc := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "edge-burst", "--seed", "3", "--seconds", "1", "--trace", tc.trace, "--out", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Fatalf("trace %s: result %+v", tc.trace, res)
		}
		if len(res.Metrics) != len(tc.specs) {
			t.Fatalf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.specs))
		}
		for _, s := range tc.specs {
			m, ok := res.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %s: metric %s = %+v", tc.trace, s.Name, m)
			}
		}
	}
}
