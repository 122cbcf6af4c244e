// Command rentbench is the repository's benchmark: a single-binary,
// closed-loop load generator that starts the real serving stack
// in-process over loopback, drives it through the public client package
// with a seeded list of operations, and checks every answer against an
// in-process oracle.
//
// It is a module of its own; build and run it through the wrapper from
// the repository root, which keeps every build output in .bench_build:
//
//	bash cmd/rentbench/run.sh -workload paper-mix -seed 1 -seconds 8
//	bash cmd/rentbench/run.sh -seed 1 -out results.json        # every workload
//	bash cmd/rentbench/run.sh -workload paper-mix -trace -out layers.json
//	bash cmd/rentbench/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace the per-layer metrics. See README.md for the workloads and
// the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string
	spansDir  string
	compare   bool
	benchmark string
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("rentbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (default: every workload, each in a fresh child process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "timed phase length in seconds, rounded up to whole passes")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: report per-layer metrics and write trace-<workload>.json")
	fs.StringVar(&cfg.out, "out", "", "append each run as one JSON line to this file")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".", "directory for trace-<workload>.json span files")
	fs.BoolVar(&cfg.compare, "compare", false, "compare two result files: rentbench -compare A.json B.json")
	fs.StringVar(&cfg.benchmark, "benchmark", "BENCHMARK.json", "bounds file for -compare")
	if err := fs.Parse(joinBoolValues(args)); err != nil {
		return 2
	}
	if cfg.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "rentbench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, cfg.benchmark, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "rentbench:", err)
			return 1
		}
		return 0
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout, stderr)
	}
	rec, err := runWorkload(context.Background(), cfg, false)
	if err != nil {
		fmt.Fprintf(stderr, "rentbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, e := range rec.errs {
		fmt.Fprintf(stderr, "rentbench: %s: failed: %s\n", cfg.workload, e)
	}
	fmt.Fprintf(stderr, "rentbench: %s seed %d: %v\n", rec.Workload, rec.Seed, rec.Info)
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			fmt.Fprintln(stderr, "rentbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "rentbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// joinBoolValues rewrites "-trace 0" and "--trace 1" as -trace=0 and
// -trace=1: the flag package only takes a boolean's value after '='.
func joinBoolValues(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it, one JSON object per line.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	Info map[string]float64 `json:"info"`
	errs []string
}

// units names every metric the benchmark reports, with its unit.
var units = map[string]string{
	"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s",
	"cpu_ms_per_op": "ms", "allocs_per_op": "count", "mean_heap_mb": "MB",

	"lp.root_ms": "ms", "lp.root_iters": "count", "lp.ns_per_iter": "ns", "lp.root_allocs": "count",
	"lp.cut_loop_ms": "ms", "lp.cut_gap_closed": "ratio", "lp.iters_per_op": "count",
	"milp.presolve_ms": "ms", "milp.presolve_reductions": "count", "milp.nodes_per_op": "count",
	"milp.lp_solves_per_node": "ratio", "milp.warm_lp_share": "ratio", "milp.cuts_per_op": "count", "milp.tree_ms": "ms",
	"solve.encode_us": "us", "solve.h1_us": "us", "solve.ilp_ms": "ms", "solve.ilp_allocs": "count",
	"rentmin.solve_ms": "ms", "rentmin.facade_us": "us", "rentmin.pool_us": "us", "rentmin.solve_allocs": "count",
	"http.rtt_ms": "ms", "server.decode_ms": "ms", "server.queue_wait_ms": "ms", "server.solve_ms": "ms",
	"http.overhead_ms": "ms", "http.overhead_allocs": "count", "server.rejected": "count",
	"pool.hop_ms": "ms", "pool.dispatch_rtt_p50_ms": "ms", "pool.item_share_max": "ratio", "pool.faults": "count",
	"pool.cache_hit_ratio": "ratio", "pool.uploads": "count", "server.coord_queue_wait_ms": "ms",
	"session.rtt_ms": "ms", "session.solve_ms": "ms", "session.overhead_ms": "ms", "session.apply_ms": "ms",
	"session.cold_apply_ms": "ms", "session.warm_share": "ratio", "session.root_lp_warm_share": "ratio",
	"session.iters_per_event": "count", "session.nodes_per_event": "count", "session.churn_per_event": "count",
	"core.certify_us": "us", "trace.overhead": "ratio",
}

// setupReps is how many times an untraced run sets its stack up; setup_s
// is the median.
const setupReps = 11

// runWorkload makes the inputs, runs the oracle, sets the stack up, and
// runs the timed phase (or, with cfg.trace, the traced run). short
// shrinks the inputs for the smoke test.
func runWorkload(ctx context.Context, cfg config, short bool) (record, error) {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Info: map[string]float64{}}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return rec, err
	}
	pl, err := w.build(cfg.seed, short)
	if err != nil {
		return rec, fmt.Errorf("build inputs: %w", err)
	}
	start := time.Now()
	if err := runOracle(ctx, pl); err != nil {
		return rec, err
	}
	rec.Info["oracle_s"] = time.Since(start).Seconds()
	rec.Info["inputs"] = float64(len(pl.inputs))

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var st *stack
	for k := 0; k < reps; k++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		if st, err = startStack(ctx, pl); err != nil {
			return rec, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < reps-1 {
			st.close()
		}
	}
	defer st.close()
	r := &runner{pl: pl, st: st}
	d := time.Duration(cfg.seconds * float64(time.Second))

	values := map[string]float64{}
	if cfg.trace {
		if values, err = runTraced(ctx, r, d, cfg.spansDir, w.name, cfg.seed); err != nil {
			return rec, err
		}
	} else {
		r.measure(ctx, 0, nil) // untimed warm-up pass
		runtime.GC()           // the timed phase starts from a collected heap
		m := r.measure(ctx, d, nil)
		items := float64(m.items)
		values["ops_per_s"] = items / m.elapsed.Seconds()
		values["latency_p50_ms"] = quantile(m.lats, 0.5)
		values["latency_p90_ms"] = quantile(m.lats, 0.9)
		values["setup_s"] = median(setups)
		values["cpu_ms_per_op"] = ms(m.cpu) / items
		values["allocs_per_op"] = float64(m.allocs) / items
		values["mean_heap_mb"] = m.meanHeap / (1 << 20)
		rec.Info["passes"] = float64(m.passes)
		rec.Info["samples"] = float64(len(m.lats))
		rec.Info["items"] = items
	}
	rec.Metrics = make(map[string]metric, len(values))
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A failed op has infinite latency; JSON has no infinity.
			v = math.MaxFloat64
		}
		rec.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	rec.Attempted, rec.Failed, rec.errs = r.tally.attempted, r.tally.failed, r.tally.errs
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a fresh child process, so set-up,
// memory and GC state never leak from one workload into the next.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rentbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			fmt.Sprintf("-trace=%t", cfg.trace), "-spans-dir", cfg.spansDir}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rentbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
