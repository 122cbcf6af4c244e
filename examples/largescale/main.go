// Command largescale reproduces the spirit of the paper's Figure 8 stress
// test at example scale: applications with hundreds of tasks over many
// machine types, where the exact solver hits its time budget while the
// polynomial heuristics answer in milliseconds with near-identical costs.
// The paper limited Gurobi to 100 s; here the branch-and-bound budget is a
// command-line flag (default 2 s).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"rentmin"
)

func main() {
	limit := flag.Duration("ilp-limit", 2*time.Second, "time budget per exact solve")
	graphs := flag.Int("graphs", 10, "alternative recipes")
	minTasks := flag.Int("min-tasks", 100, "minimum tasks per recipe")
	maxTasks := flag.Int("max-tasks", 200, "maximum tasks per recipe")
	types := flag.Int("types", 50, "machine types")
	seed := flag.Uint64("seed", 8, "instance seed")
	flag.Parse()

	problem, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs:     *graphs,
		MinTasks:      *minTasks,
		MaxTasks:      *maxTasks,
		MutatePercent: 0.3,
		NumTypes:      *types,
		CostMin:       1, CostMax: 100,
		ThroughputMin: 5, ThroughputMax: 25,
	}, *seed)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	fmt.Printf("instance: %d recipes of %d-%d tasks over %d machine types\n\n",
		*graphs, *minTasks, *maxTasks, *types)

	fmt.Printf("%6s | %12s %10s %7s | %12s %10s | %8s\n",
		"rho", "ILP-cost", "ILP-time", "proven", "H32J-cost", "H32J-time", "gap")
	for _, target := range []int{40, 80, 120, 160, 200} {
		problem.Target = target

		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), *limit)
		sol, err := rentmin.SolveContext(ctx, problem, nil)
		cancel()
		ilpTime := time.Since(start)
		if err != nil {
			log.Fatalf("solve: %v", err)
		}

		start = time.Now()
		heur, err := rentmin.Heuristic(problem, rentmin.HeuristicH32Jump,
			&rentmin.HeuristicOptions{Delta: 10}, 1)
		heurTime := time.Since(start)
		if err != nil {
			log.Fatalf("heuristic: %v", err)
		}

		gap := float64(heur.Cost-sol.Alloc.Cost) / float64(sol.Alloc.Cost) * 100
		fmt.Printf("%6d | %12d %10s %7v | %12d %10s | %+7.2f%%\n",
			target, sol.Alloc.Cost, ilpTime.Round(time.Millisecond), sol.Proven,
			heur.Cost, heurTime.Round(time.Microsecond), gap)
	}
	fmt.Println("\nAt this scale the exact search spends its whole budget (proven=false")
	fmt.Println("on hard rows) while the heuristic stays within a few percent — the")
	fmt.Println("paper's Figure 8 conclusion.")
}
