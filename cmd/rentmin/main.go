// Command rentmin solves one rental-minimization instance from a JSON
// problem file (see core.Problem for the schema and cmd/genconfig to
// create instances).
//
// Usage:
//
//	rentmin -problem instance.json [-target 70] [-algo ilp|h0|h1|h2|h31|h32|h32jump]
//	        [-time-limit 10s] [-seed 1] [-delta 10]
//	        [-iterations 2000] [-simulate] [-sim-duration 60]
//
// The tool prints the chosen per-graph throughput split, the machines to
// rent per type, and the hourly cost; with -simulate it also validates the
// rental in the discrete-event stream simulator.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rentmin"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rentmin: ")

	problemPath := flag.String("problem", "", "path to the JSON problem file (required)")
	target := flag.Int("target", -1, "target throughput (overrides the file's value when >= 0)")
	algo := flag.String("algo", "ilp", "algorithm: ilp, h0, h1, h2, h31, h32, h32jump")
	timeLimit := flag.Duration("time-limit", 0, "branch-and-bound budget for -algo ilp (0 = unlimited)")
	seed := flag.Uint64("seed", 1, "seed for stochastic heuristics")
	delta := flag.Int("delta", 0, "exchange quantum for iterative heuristics (0 = auto)")
	iterations := flag.Int("iterations", 0, "iteration budget for iterative heuristics (0 = default)")
	simulate := flag.Bool("simulate", false, "validate the allocation in the stream simulator")
	simDuration := flag.Float64("sim-duration", 60, "simulation horizon in time units")
	flag.Parse()

	if *problemPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	problem, err := rentmin.LoadProblem(*problemPath)
	if err != nil {
		log.Fatalf("load problem: %v", err)
	}
	if *target >= 0 {
		problem.Target = *target
	}

	var alloc rentmin.Allocation
	start := time.Now()
	switch strings.ToLower(*algo) {
	case "ilp":
		sol, err := rentmin.Solve(problem, &rentmin.SolveOptions{TimeLimit: *timeLimit})
		if err != nil {
			log.Fatalf("solve: %v", err)
		}
		alloc = sol.Alloc
		defer func() {
			if !sol.Proven {
				fmt.Printf("note: time limit hit; best bound %.1f (gap not closed)\n", sol.Bound)
			}
		}()
	case "h0", "h1", "h2", "h31", "h32", "h32jump":
		name := map[string]rentmin.HeuristicName{
			"h0": rentmin.HeuristicH0, "h1": rentmin.HeuristicH1,
			"h2": rentmin.HeuristicH2, "h31": rentmin.HeuristicH31,
			"h32": rentmin.HeuristicH32, "h32jump": rentmin.HeuristicH32Jump,
		}[strings.ToLower(*algo)]
		opts := &rentmin.HeuristicOptions{Delta: *delta, Iterations: *iterations}
		alloc, err = rentmin.Heuristic(problem, name, opts, *seed)
		if err != nil {
			log.Fatalf("heuristic: %v", err)
		}
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}
	elapsed := time.Since(start)

	fmt.Printf("problem:   %s (J=%d recipes, Q=%d types)\n", *problemPath, problem.NumGraphs(), problem.NumTypes())
	fmt.Printf("target:    %d items per time unit\n", problem.Target)
	fmt.Printf("algorithm: %s (%v)\n", strings.ToUpper(*algo), elapsed.Round(time.Microsecond))
	fmt.Printf("split:     %v\n", alloc.GraphThroughput)
	fmt.Println("rental:")
	for q, n := range alloc.Machines {
		if n == 0 {
			continue
		}
		mt := problem.Platform.Machines[q]
		name := mt.Name
		if name == "" {
			name = fmt.Sprintf("type-%d", q)
		}
		fmt.Printf("  %4dx %-12s (throughput %d, cost %d/h)\n", n, name, mt.Throughput, mt.Cost)
	}
	fmt.Printf("hourly cost: %d\n", alloc.Cost)

	if *simulate {
		met, err := rentmin.Simulate(rentmin.SimConfig{
			Problem:  problem,
			Alloc:    alloc,
			Duration: *simDuration,
			Warmup:   *simDuration / 4,
		}, *seed)
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		fmt.Printf("simulated:  %.1f items/t.u. sustained (target %d), in order: %v, reorder peak %d\n",
			met.Throughput, problem.Target, met.InOrder, met.ReorderMax)
	}
}
