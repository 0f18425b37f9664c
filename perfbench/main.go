// Command perfbench is the repository's end-to-end benchmark. It drives
// the serving stack in-process through serve.Registry (Register, Infer,
// Stats) on one named workload, checks every response, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// replay (--trace 1). The last line of standard output is the result:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// Run it from the repository root with perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload resnet50-blocks --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (resnet50-blocks, mobilenet-dsc, edge-burst)")
	seed := fs.Int64("seed", 1, "seed for the request sequence and inputs")
	seconds := fs.Float64("seconds", 30, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the result record and span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	rep := &report{Host: fingerprint(), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	res, err := execute(w, rep, *outDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	h := rep.Host
	fmt.Fprintf(stdout, "host cpu=%q nproc=%d gomaxprocs=%d go=%s arch=%s vcs.revision=%s vcs.modified=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.VCSRevision, h.VCSModified)
	cfg, _ := json.Marshal(rep.Stack) // plain struct of numbers and a string map: cannot fail
	fmt.Fprintf(stdout, "config workload=%s seed=%d seconds=%g trace=%v registry=%s\n", w.name, rep.Seed, rep.Seconds, rep.Trace, cfg)
	for _, l := range rep.Lines {
		fmt.Fprintln(stdout, l)
	}
	if *outDir != "" {
		path := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, rep.Seed, *trace))
		if err := writeJSON(path, rep); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing record: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "record %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong outputs\n", w.name, rep.Wrong)
		return 1
	}
	return 0
}

// execute prepares the workload and runs either the end-to-end
// measurement or the traced replay.
func execute(w *workload, rep *report, outDir string) (result, error) {
	s, err := prepare(w, rep.Seed, rep)
	if err != nil {
		return result{}, err
	}
	defer s.st.teardown(s.models)
	rep.Stack = s.cfg
	var vals map[string]float64
	specs := endToEnd
	var lr loadResult
	if rep.Trace {
		specs = perLayer
		if vals, lr, err = s.traced(rep.Seconds, outDir, rep); err != nil {
			return result{}, err
		}
	} else {
		vals, lr = s.measure(rep.Seconds, rep)
	}
	attempted, failed, _ := lr.counts()
	metrics, err := collect(specs, vals)
	if err != nil {
		return result{}, err
	}
	rep.Wrong = s.wrong
	res := result{Correct: s.wrong == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	rep.Result = res
	return res, nil
}
