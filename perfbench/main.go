// Command perfbench is the repository's benchmark: it drives the clock-tree
// synthesis flow through its public entry points (LEF/DEF parse, design
// build, cts.Run, DEF export, and the HTTP job service) on one of three
// workloads, checks every output, and prints one JSON result line.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload table4_paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with the flow's observability recorder and the benchmark's own spans on,
// adds the per-layer probes, and reports the per-layer metrics instead.
// Every input is generated from fixed seeds and --seed. See README.md for
// the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median of their CPU times, so neither one slow repetition nor time the
// hypervisor stole moves the figure.
const setupReps = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects named figures with their units.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// workload is one benchmark scenario. setup builds every input from the
// seed and may be called repeatedly (the last call's inputs are used);
// run measures for about the given duration.
type workload interface {
	setup(seed int64, seconds float64, dir string) error
	run(seconds float64, tr *tracer, hs *hostSpeed) *outcome
	close()
}

// outcome is what a measured run hands back to main: job counts, the
// failures seen, and the metrics for the selected mode.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   metricSet
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "table4_paper | scale_100k | service_replay")
	seed := flag.Int64("seed", 1, "input seed: which placement each warm service_replay job resubmits (batch placements are fixed)")
	seconds := flag.Float64("seconds", 20, "measurement duration per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	w, err := newWorkload(*name)
	if err != nil {
		fatal(err)
	}
	base := os.Getenv("PERFBENCH_DIR")
	if base == "" {
		base = ".bench_build"
	}
	workDir = filepath.Join(base, fmt.Sprintf("work-%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	code := runBench(w, *name, *seed, *seconds, *trace == 1, base, workDir)
	os.RemoveAll(workDir)
	os.Exit(code)
}

// runBench sets up, measures and reports one run; it returns the exit code.
func runBench(w workload, name string, seed int64, seconds float64, traced bool, base, dir string) int {
	defer w.close()
	hs, err := newHostSpeed()
	if err != nil {
		fatal(err)
	}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		hs.sample()
		start := cpuSeconds()
		if err := w.setup(seed, seconds, dir); err != nil {
			fatal(fmt.Errorf("setup: %w", err))
		}
		setups = append(setups, cpuSeconds()-start)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out := w.run(seconds, tr, hs)
	if !traced {
		hs.sample()
		out.metrics.set("setup_s", "s", median(setups)*hs.cpuScale())
		fmt.Printf("perfbench: setup %.4f CPU s measured; %d host-speed samples, median reference %.2fms wall and %.2fms CPU, %.4f and %.4f nominal s per measured s\n",
			median(setups), len(hs.walls), 1e3*median(hs.walls), 1e3*median(hs.cpus), hs.wallScale(), hs.cpuScale())
	}
	if err := checkNames(out.metrics, traced); err != nil {
		fatal(err)
	}
	if tr != nil {
		path := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric(out.metrics),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "table4_paper":
		return newTable4(), nil
	case "scale_100k":
		return newScale(), nil
	case "service_replay":
		return &service{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table4_paper, scale_100k or service_replay)", name)
}

// workers is the flow's worker budget: one per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest-ranked sample with at least ten samples above it:
// the highest percentile a run can state with ten observations beyond it.
// It returns the value and the name of the statistic. Below 22 samples
// that rank falls under the median, so the run reports the mean of its
// slower half instead; the batch workloads, with one to three passes a
// run, always do.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < len(s)/2 {
		return mean(s[len(s)/2:]), "mean of the slower half"
	}
	return s[i], fmt.Sprintf("p%.1f", 100*float64(i+1)/float64(len(s)))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// workDir holds a run's inputs and outputs; every exit path removes it.
var workDir string

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	if workDir != "" {
		os.RemoveAll(workDir)
	}
	os.Exit(2)
}
