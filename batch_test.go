package rentmin_test

import (
	"strings"
	"testing"

	"rentmin"
)

// batchProblems builds a mixed batch: generated instances of different
// shapes plus the paper's illustrating example.
func batchProblems(t *testing.T) []*rentmin.Problem {
	t.Helper()
	var ps []*rentmin.Problem
	for i, target := range []int{20, 45, 70} {
		p, err := rentmin.Generate(rentmin.GenConfig{
			NumGraphs: 3 + i, MinTasks: 2, MaxTasks: 4, MutatePercent: 0.5,
			NumTypes: 3, CostMin: 1, CostMax: 30,
			ThroughputMin: 5, ThroughputMax: 25,
		}, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		p.Target = target
		ps = append(ps, p)
	}
	ex := rentmin.IllustratingExample()
	ex.Target = 70
	ps = append(ps, ex)
	return ps
}

// TestSolveBatchMatchesSolve cross-validates the batch path against
// one-at-a-time Solve, for several pool widths.
func TestSolveBatchMatchesSolve(t *testing.T) {
	problems := batchProblems(t)
	want := make([]rentmin.Solution, len(problems))
	for i, p := range problems {
		sol, err := rentmin.Solve(p, nil)
		if err != nil {
			t.Fatalf("Solve %d: %v", i, err)
		}
		want[i] = sol
	}
	for _, workers := range []int{0, 1, 3} {
		sols, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("SolveBatch(workers=%d): %v", workers, err)
		}
		if len(sols) != len(problems) {
			t.Fatalf("got %d solutions for %d problems", len(sols), len(problems))
		}
		for i, sol := range sols {
			if sol.Alloc.Cost != want[i].Alloc.Cost {
				t.Errorf("workers=%d problem %d: batch cost %d != solve cost %d",
					workers, i, sol.Alloc.Cost, want[i].Alloc.Cost)
			}
			if !sol.Proven {
				t.Errorf("workers=%d problem %d: not proven optimal", workers, i)
			}
		}
	}
}

// TestSolverPoolReuse pushes several batches through one pool.
func TestSolverPoolReuse(t *testing.T) {
	problems := batchProblems(t)
	pool := rentmin.NewSolverPool(2)
	defer pool.Close()
	var first []rentmin.Solution
	for round := 0; round < 3; round++ {
		sols, err := pool.SolveBatch(problems, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = sols
			continue
		}
		for i := range sols {
			if sols[i].Alloc.Cost != first[i].Alloc.Cost {
				t.Errorf("round %d problem %d: cost %d != first round %d",
					round, i, sols[i].Alloc.Cost, first[i].Alloc.Cost)
			}
		}
	}
}

// TestSolveBatchReportsFailingIndex verifies error labeling: an invalid
// problem in the middle of a batch is reported by its index.
func TestSolveBatchReportsFailingIndex(t *testing.T) {
	problems := batchProblems(t)
	problems[1] = &rentmin.Problem{} // no graphs, no platform: invalid
	_, err := rentmin.SolveBatch(problems, nil)
	if err == nil {
		t.Fatal("invalid problem not reported")
	}
	if !strings.Contains(err.Error(), "problem 1") {
		t.Errorf("error %q does not name the failing index", err)
	}
}

// TestSolveBatchEmpty pins the trivial case.
func TestSolveBatchEmpty(t *testing.T) {
	sols, err := rentmin.SolveBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Errorf("got %d solutions for empty batch", len(sols))
	}
}

// TestSolveWorkersAgree: SolveOptions.Workers sizes SolveBatch only, so
// Solve with Workers 2 or 8 runs exactly the search of Workers 1 — the
// same cost and the same search counters.
func TestSolveWorkersAgree(t *testing.T) {
	for i, p := range batchProblems(t) {
		ref, err := rentmin.Solve(p, &rentmin.SolveOptions{Workers: 1})
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		for _, w := range []int{2, 8} {
			sol, err := rentmin.Solve(p, &rentmin.SolveOptions{Workers: w})
			if err != nil {
				t.Fatalf("problem %d workers %d: %v", i, w, err)
			}
			if sol.Alloc.Cost != ref.Alloc.Cost || sol.SearchStats != ref.SearchStats {
				t.Errorf("problem %d: workers=%d cost %d, stats %+v; workers=1 cost %d, stats %+v",
					i, w, sol.Alloc.Cost, sol.SearchStats, ref.Alloc.Cost, ref.SearchStats)
			}
		}
	}
}
