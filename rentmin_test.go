package rentmin_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rentmin"
)

func TestSolveIllustratingExample(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 70
	sol, err := rentmin.Solve(problem, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Proven {
		t.Error("optimum not proven")
	}
	if sol.Alloc.Cost != 124 {
		t.Errorf("cost = %d, want 124 (paper Section VII)", sol.Alloc.Cost)
	}
	if sol.Bound < 124-1e-6 || sol.Bound > 124+1e-6 {
		t.Errorf("bound = %g, want 124", sol.Bound)
	}
}

func TestSolveRejectsInvalidProblem(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Platform.Machines[0].Throughput = 0
	if _, err := rentmin.Solve(problem, nil); err == nil {
		t.Error("Solve accepted an invalid problem")
	}
}

func TestSolveTimeLimitStillAnswers(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 180
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	sol, err := rentmin.SolveContext(ctx, problem, nil)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	// The self-seeded warm start guarantees an answer even under an
	// expired budget.
	if sol.Alloc.TotalThroughput() < 180 {
		t.Errorf("allocation covers %d < 180", sol.Alloc.TotalThroughput())
	}
}

func TestSolveWarmStart(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 70
	sol, err := rentmin.Solve(problem, &rentmin.SolveOptions{WarmStart: []int{10, 30, 30}})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Alloc.Cost != 124 || !sol.Proven {
		t.Errorf("warm-started solve: cost %d proven %v", sol.Alloc.Cost, sol.Proven)
	}
}

func TestHeuristicNames(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 50
	want := map[rentmin.HeuristicName]int64{
		rentmin.HeuristicH1:  104, // Table III
		rentmin.HeuristicH32: 104, // stuck in the same local minimum
	}
	for name, cost := range want {
		alloc, err := rentmin.Heuristic(problem, name, &rentmin.HeuristicOptions{Delta: 10}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc.Cost != cost {
			t.Errorf("%s cost = %d, want %d", name, alloc.Cost, cost)
		}
	}
	if _, err := rentmin.Heuristic(problem, "bogus", nil, 1); err == nil {
		t.Error("accepted unknown heuristic name")
	}
	for _, name := range []rentmin.HeuristicName{
		rentmin.HeuristicH0, rentmin.HeuristicH2, rentmin.HeuristicH31, rentmin.HeuristicH32Jump,
	} {
		alloc, err := rentmin.Heuristic(problem, name, &rentmin.HeuristicOptions{Delta: 10}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc.TotalThroughput() != 50 {
			t.Errorf("%s split sums to %d, want 50", name, alloc.TotalThroughput())
		}
	}
}

func TestSpecialCaseSolvers(t *testing.T) {
	// Black box: three single-task recipes with private types.
	bb := &rentmin.Problem{
		App: rentmin.Application{Graphs: []rentmin.Graph{
			rentmin.NewChain("a", 0),
			rentmin.NewChain("b", 1),
		}},
		Platform: rentmin.Platform{Machines: []rentmin.MachineType{
			{Throughput: 7, Cost: 9},
			{Throughput: 5, Cost: 6},
		}},
		Target: 24,
	}
	a, err := rentmin.SolveBlackBox(bb)
	if err != nil {
		t.Fatalf("SolveBlackBox: %v", err)
	}
	sol, err := rentmin.Solve(bb, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if a.Cost != sol.Alloc.Cost {
		t.Errorf("black-box DP %d != ILP %d", a.Cost, sol.Alloc.Cost)
	}

	// No shared types: two disjoint chains.
	ns := &rentmin.Problem{
		App: rentmin.Application{Graphs: []rentmin.Graph{
			rentmin.NewChain("a", 0, 1),
			rentmin.NewChain("b", 2, 3),
		}},
		Platform: rentmin.Platform{Machines: []rentmin.MachineType{
			{Throughput: 10, Cost: 10}, {Throughput: 20, Cost: 18},
			{Throughput: 30, Cost: 25}, {Throughput: 40, Cost: 33},
		}},
		Target: 55,
	}
	d, err := rentmin.SolveNoShared(ns)
	if err != nil {
		t.Fatalf("SolveNoShared: %v", err)
	}
	sol2, err := rentmin.Solve(ns, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if d.Cost != sol2.Alloc.Cost {
		t.Errorf("no-shared DP %d != ILP %d", d.Cost, sol2.Alloc.Cost)
	}

	// Independent applications with fixed per-recipe targets.
	ind, err := rentmin.SolveIndependent(ns, []int{30, 25})
	if err != nil {
		t.Fatalf("SolveIndependent: %v", err)
	}
	if ind.TotalThroughput() != 55 {
		t.Errorf("independent split sums to %d", ind.TotalThroughput())
	}
}

func TestGenerateAndRoundTrip(t *testing.T) {
	problem, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 5, MinTasks: 3, MaxTasks: 6, MutatePercent: 0.5,
		NumTypes: 4, CostMin: 1, CostMax: 50,
		ThroughputMin: 5, ThroughputMax: 40,
	}, 99)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	problem.Target = 30
	path := filepath.Join(t.TempDir(), "p.json")
	if err := rentmin.SaveProblem(path, problem); err != nil {
		t.Fatalf("SaveProblem: %v", err)
	}
	loaded, err := rentmin.LoadProblem(path)
	if err != nil {
		t.Fatalf("LoadProblem: %v", err)
	}
	if loaded.Target != 30 || loaded.NumGraphs() != 5 {
		t.Errorf("round trip mismatch: %+v", loaded)
	}
	// Solving the loaded instance works end to end.
	sol, err := rentmin.Solve(loaded, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := rentmin.NewCostModel(loaded).CheckFeasible(sol.Alloc, 30); err != nil {
		t.Errorf("allocation infeasible: %v", err)
	}
}

func TestReadWriteProblemFacade(t *testing.T) {
	var buf bytes.Buffer
	p := rentmin.IllustratingExample()
	p.Target = 60
	if err := rentmin.WriteProblem(&buf, p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	q, err := rentmin.ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if q.Target != 60 || q.NumGraphs() != 3 {
		t.Errorf("round trip mismatch: %+v", q)
	}
	if _, err := rentmin.ReadProblem(strings.NewReader("{broken")); err == nil {
		t.Error("ReadProblem accepted garbage")
	}
}

func TestSimulateWithOutageFacade(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 70
	sol, err := rentmin.Solve(problem, nil)
	if err != nil {
		t.Fatal(err)
	}
	met, err := rentmin.Simulate(rentmin.SimConfig{
		Problem:  problem,
		Alloc:    sol.Alloc,
		Duration: 40,
		Warmup:   5,
		Outages:  []rentmin.Outage{{Type: 0, Start: 10, Duration: 15}},
	}, 1)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.Throughput >= 70 {
		t.Errorf("outage on a saturated pool left throughput at %g", met.Throughput)
	}
}

func TestSimulateFacade(t *testing.T) {
	problem := rentmin.IllustratingExample()
	problem.Target = 40
	sol, err := rentmin.Solve(problem, nil)
	if err != nil {
		t.Fatal(err)
	}
	met, err := rentmin.Simulate(rentmin.SimConfig{
		Problem:  problem,
		Alloc:    sol.Alloc,
		Duration: 30,
		Warmup:   10,
	}, 5)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.Throughput < 0.9*40 {
		t.Errorf("throughput %g below target", met.Throughput)
	}
	if !met.InOrder {
		t.Error("stream out of order")
	}
}
