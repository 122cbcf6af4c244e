package rentmin_test

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"rentmin"
	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
	"rentmin/internal/stream"
)

// Integration properties across the whole stack: generator → solvers →
// cost model → stream simulator.

// Property: on random generated instances, every solver path agrees on
// feasibility, heuristics are bracketed by [optimum, H1], and the exact
// allocation sustains its target in simulation.
func TestQuickEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration property test")
	}
	f := func(seed uint64) bool {
		src := rng.New(seed)
		cfg := graphgen.Config{
			NumGraphs:     2 + int(seed%5),
			MinTasks:      2,
			MaxTasks:      5,
			MutatePercent: 0.5,
			NumTypes:      2 + int(seed%4),
			CostMin:       1, CostMax: 40,
			ThroughputMin: 3, ThroughputMax: 30,
			ExtraEdgeProb: 0.2,
		}
		problem, err := graphgen.Generate(cfg, src)
		if err != nil {
			return false
		}
		m := core.NewCostModel(problem)
		target := 5 + int(seed%40)

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := solve.ILPContext(ctx, m, target, nil)
		cancel()
		if err != nil || !res.Proven {
			return false
		}
		if err := m.CheckFeasible(res.Alloc, target); err != nil {
			return false
		}

		h1 := heuristics.H1(m, target)
		for _, alg := range heuristics.All() {
			a := alg.Run(m, target, &heuristics.Options{Iterations: 300}, src.Sub(7))
			if a.Cost < res.Alloc.Cost || a.Cost > h1.Cost {
				return false
			}
			if m.CheckFeasible(a, target) != nil {
				return false
			}
		}

		met, err := stream.Simulate(stream.Config{
			Problem: problem, Alloc: res.Alloc, Duration: 20, Warmup: 5,
		}, nil)
		if err != nil {
			return false
		}
		return met.InOrder &&
			met.ItemsCompleted == met.ItemsInjected &&
			met.Throughput >= 0.88*float64(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The full public workflow the README advertises, end to end.
func TestReadmeWorkflow(t *testing.T) {
	problem, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 6, MinTasks: 3, MaxTasks: 6, MutatePercent: 0.4,
		NumTypes: 5, CostMin: 1, CostMax: 60,
		ThroughputMin: 5, ThroughputMax: 50,
	}, 2024)
	if err != nil {
		t.Fatal(err)
	}
	problem.Target = 45

	sol, err := rentmin.Solve(problem, nil)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := rentmin.Heuristic(problem, rentmin.HeuristicH32Jump, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Cost < sol.Alloc.Cost {
		t.Errorf("heuristic %d beats proven optimum %d", heur.Cost, sol.Alloc.Cost)
	}
	met, err := rentmin.Simulate(rentmin.SimConfig{
		Problem: problem, Alloc: sol.Alloc, Duration: 25, Warmup: 5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if met.Throughput < 0.88*45 {
		t.Errorf("optimal rental does not sustain the target: %g", met.Throughput)
	}
}

// Under-provisioning invariant across modules: shave one machine off a
// tight type of the exact allocation and the simulator must miss the
// target.
func TestUnderProvisionDetectedBySimulator(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 120
	sol, err := rentmin.Solve(problem, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := rentmin.NewCostModel(problem)
	demand := make([]int64, m.Q)
	m.Demands(sol.Alloc.GraphThroughput, demand)
	// Find a type whose pool is fully loaded.
	tight := -1
	for q := 0; q < m.Q; q++ {
		if sol.Alloc.Machines[q] > 0 &&
			demand[q] == int64(sol.Alloc.Machines[q])*int64(m.R[q]) {
			tight = q
			break
		}
	}
	if tight < 0 {
		t.Skip("no fully saturated pool in this optimum")
	}
	crippled := sol.Alloc.Clone()
	crippled.Machines[tight]--
	crippled.Cost -= m.C[tight]
	met, err := rentmin.Simulate(rentmin.SimConfig{
		Problem: problem, Alloc: crippled, Duration: 40, Warmup: 10,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if met.Throughput >= float64(problem.Target) {
		t.Errorf("simulator sustained %g despite removing a saturated machine", met.Throughput)
	}
}
