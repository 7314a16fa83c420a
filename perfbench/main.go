// Command perfbench is the repository benchmark. One process runs one
// workload for a fixed measuring window, checks every output it produced
// against ground truth, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload sim-mcf-rrs --seed 190 --seconds 10 --trace 0
//
// --trace 0 is the timed run: it reports the end-to-end metrics, each a
// median over the window. --trace 1 is the separate traced run: it times
// calls into each layer's public functions and seams from outside,
// replays the streams it recorded into per-layer micro-benchmarks, and
// reports the per-layer metrics. Workloads, metrics and the layer map
// are described in perfbench/README.md.
//
// A failed output gate prints the reason on stderr and exits 1 without
// printing metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// pinnedSeed is the benchmark seed whose simulation outputs are pinned
// (cmd/rrs-bench's benchSeed); it is the --seed default.
const pinnedSeed = 190

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the timed run. Every workload reports all
// of them; README.md gives each workload's reading of each name.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run. Every workload reports
// all of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	// Simulation path, measured around each layer's calls.
	{"trace.next_ns", "ns"},
	{"trace.share", "ratio"},
	{"mit.activate_ns", "ns"},
	{"mit.activate_calls", "count"},
	{"mit.remap_ns", "ns"},
	{"mit.remap_calls", "count"},
	{"mit.batch_ratio", "ratio"},
	{"mit.share", "ratio"},
	{"engine.self_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	// Simulation path, replay micro-benchmarks.
	{"cpu.issue_ns", "ns"},
	{"memctrl.access_ns", "ns"},
	{"dram.activate_ns", "ns"},
	{"tracker.observe_ns", "ns"},
	{"cat.setsof_ns", "ns"},
	{"prince.encrypt_ns", "ns"},
	{"rit.remap_ns", "ns"},
	{"sim.setup_ms", "ms"},
	// Simulated model.
	{"model.rows_touched_per_bank_max", "count"},
	{"model.swaps_per_epoch", "count"},
	{"model.reswaps", "count"},
	{"model.mpki_err_pct", "%"},
	{"model.hot_rows_err_pct", "%"},
	// Sharded engine (sim-mcf-rrs only).
	{"sim.par_w1_s", "s"},
	{"sim.par_wN_s", "s"},
	{"sim.par_speedup", "ratio"},
	// Job service.
	{"svc.run_ms", "ms"},
	{"svc.queue_wait_ms", "ms"},
	{"svc.server_ms", "ms"},
	{"svc.client_overhead_ms", "ms"},
	{"svc.job_tail_ms", "ms"},
	{"svc.alloc_mb_per_job", "MB"},
	{"svc.failed_frac", "ratio"},
	{"svc.runs_per_cold_job", "ratio"},
	{"svc.cache_hits", "count"},
	{"svc.coalesced", "count"},
	{"svc.hash_us", "us"},
	{"svc.submit_us", "us"},
	{"svc.submit_hit_us", "us"},
	{"svc.submit_journal_us", "us"},
	{"http.requests_per_job", "ratio"},
	{"http.rtt_us", "us"},
	// Fleet.
	{"fleet.forwards_per_job", "ratio"},
	{"fleet.proxied_per_job", "ratio"},
	{"fleet.steals", "count"},
	{"fleet.replicated", "count"},
	{"fleet.replica_lag_max", "count"},
	// Sweeps.
	{"sweep.expand_us", "us"},
	{"sweep.children_cached", "count"},
	{"sweep.requests_per_sweep", "ratio"},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	// workDir is a private scratch directory (journals) inside the
	// checkout, removed when the run ends.
	workDir string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	// detail carries sample counts and the values under their
	// workload-specific names; it goes on the first stdout line, not into
	// the result object.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// workload is one named benchmark input.
type workload struct {
	name string
	// timed runs the workload for the measuring window (--trace 0).
	timed func(ctx context.Context, rc runConfig) (*outcome, error)
	// traced is the separate per-layer run (--trace 1).
	traced func(ctx context.Context, rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{name: "sim-mcf-rrs", timed: simTimed(mcfCase), traced: simTraced(mcfCase)},
	{name: "sim-hmmer-rrs", timed: simTimed(hmmerCase), traced: simTraced(hmmerCase)},
	{name: "serve-jobs", timed: jobsTimed, traced: jobsTraced},
	{name: "serve-sweep", timed: sweepTimed, traced: sweepTraced},
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", pinnedSeed, "benchmark seed; every generated spec and seed derives from it")
	seconds := fs.Float64("seconds", 10, "measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	host, err := fingerprint()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir(), "perfbench-work-")
	if err != nil {
		return fmt.Errorf("creating work dir: %w", err)
	}
	defer os.RemoveAll(workDir)

	rc := runConfig{workload: wl.name, seed: *seed, seconds: *seconds, workDir: workDir}
	// Every run must end within 180 s; a service call still pending near
	// that point fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	start := time.Now()
	var out *outcome
	defs := endToEnd
	if *traceFlag == 1 {
		out, err = wl.traced(ctx, rc)
		defs = perLayer
	} else {
		out, err = wl.timed(ctx, rc)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	res, err := finish(out, defs, *traceFlag == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}

	header := map[string]any{
		"perfbench": map[string]any{
			"workload": wl.name, "seed": *seed, "seconds": *seconds,
			"trace": *traceFlag, "wall_s": time.Since(start).Seconds(),
			"host": host, "detail": out.detail,
		},
	}
	if err := printJSON(header); err != nil {
		return err
	}
	printSummary(wl.name, res, defs)
	return printJSON(res)
}

// finish checks the outcome carries exactly the declared metrics and
// shapes the result line. Per-layer metrics a workload does not reach
// are reported as 0.
func finish(out *outcome, defs []metricDef, zeroMissing bool) (result, error) {
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := out.metrics[d.name]
		if !ok && !zeroMissing {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for k := range out.metrics {
		if !known[k] {
			return result{}, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return res, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}

// printSummary writes a human-readable table to stderr.
func printSummary(name string, res result, defs []metricDef) {
	fmt.Fprintf(os.Stderr, "perfbench %s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// checkCheckout fails fast when the benchmark is not run from the root
// of a repository checkout (the engine sources and the pins it checks
// against live there).
func checkCheckout() error {
	for _, p := range []string{"go.mod", "internal/sim", rrsBenchPins, ownPins} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// runLimit bounds one invocation's service calls.
const runLimit = 170 * time.Second

// buildDir is where build outputs and scratch files go: the directory
// named by CARGO_TARGET_DIR, else .bench_build, as in run.sh.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
