// Command perfbench is vcgraph's end-to-end benchmark. It runs one
// workload against the program built from this checkout, checks every
// output against an oracle computed outside the timed path, and prints
// the metrics named in BENCHMARK.json at the repository root: the
// end-to-end ones with -trace 0, the per-layer ones with -trace 1.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload analytics|serving|table1 --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong output makes the
// command exit 1. spec.json beside this file records each workload's
// fixed parameters and which end-to-end metric every per-layer metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchmarkFile lists the metrics the result line must carry.
const benchmarkFile = "BENCHMARK.json"

// traceDir receives the span files of traced runs; the build directory
// is inside the checkout and ignored by git.
const traceDir = ".bench_build/traces"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefs(path string) (*benchmarkDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDefs
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string

	e2e   map[string]float64 // end-to-end metrics of the untraced window
	layer map[string]float64 // per-layer metrics of the traced window
	notes []string           // report lines printed before the result
}

// op counts one attempted operation and, when err is non-nil, one
// failed one. It reports whether the operation succeeded.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
	return false
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRepeats is how often a run builds its set-up from scratch;
// setup_s is the median, so one slow build does not move it.
const setupRepeats = 5

// timeSetups runs build setupRepeats times (keeping the last result,
// releasing the others) and returns the median duration in seconds.
func timeSetups[T any](repeats int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			release(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(ds, 0.5), nil
}

func main() {
	workload := flag.String("workload", "", "analytics | serving | table1")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int) error {
	defs, err := loadDefs(benchmarkFile)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	r := &run{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace == 1, e2e: map[string]float64{}, layer: map[string]float64{},
	}
	var tr *Tracer
	if r.trace {
		tr = newTracer()
	}
	calib := calibrate()
	switch workload {
	case "analytics":
		err = runAnalytics(r, tr)
	case "serving":
		err = runServing(r, tr)
	case "table1":
		err = runTable1(r, tr)
	default:
		return fmt.Errorf("unknown workload %q (analytics, serving, table1)", workload)
	}
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if tr != nil {
		spans := tr.Spans()
		reportSelfTimes(spans)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := tr.WriteFile(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace spans=%d file=%s\n", len(spans), path)
	}
	return finish(r, defs, calib)
}

// finish prints the report and the result line, and fails the command
// on any wrong output.
func finish(r *run, defs *benchmarkDefs, calib float64) error {
	printMachine(calib)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, e := range r.errs {
		fmt.Println("error", e)
	}
	want, got := defs.EndToEnd, r.e2e
	if r.trace {
		want, got = defs.PerLayer, r.layer
	}
	out := make(map[string]map[string]any, len(want))
	known := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), defs.EndToEnd...), defs.PerLayer...) {
		known[m.Name] = true
	}
	for name := range r.e2e {
		if !known[name] {
			return fmt.Errorf("metric %q is not in %s", name, benchmarkFile)
		}
	}
	for name := range r.layer {
		if !known[name] {
			return fmt.Errorf("metric %q is not in %s", name, benchmarkFile)
		}
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !r.trace {
			return fmt.Errorf("workload %s did not measure %s", r.workload, m.Name)
		}
		// A per-layer metric of a layer this workload does not use reads 0.
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g\n", n, got[n])
	}
	correct := r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d operations failed or were wrong", r.failed, r.attempted)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibrate times a fixed arithmetic loop (median of five), so that a
// reader comparing runs can tell a slower machine from a slower
// program. It is printed, not reported as a metric.
func calibrate() float64 {
	var ds []float64
	x := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for j := 1; j <= 5_000_000; j++ {
			x += math.Sqrt(float64(j))
		}
		ds = append(ds, time.Since(t0).Seconds()*1000)
	}
	calibSink = x
	return quantile(ds, 0.5)
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink float64

// printMachine records what the result was measured on.
func printMachine(calib float64) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("machine cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s calib_ms=%.3f\n",
		cpu, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit, calib)
}
