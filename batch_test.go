package rentmin_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestSolverPoolDefaultsToGOMAXPROCS: an in-process pool of 0 workers
// solves GOMAXPROCS problems at once.
func TestSolverPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := rentmin.NewSolverPool(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d, want %d", got, want)
	}
}

// TestInProcessPoolLeavesNothingRunning: an in-process pool holds no
// goroutines between calls, so after a batch with a panicking item and
// a cancelled batch the goroutine count returns to its baseline without
// Close. The pool's one member, named "", then has nothing in flight and
// counts every solve that started.
func TestInProcessPoolLeavesNothingRunning(t *testing.T) {
	fast := rentmin.IllustratingExample()
	fast.Target = 70
	slow := slowProblem(t)
	base := runtime.NumGoroutine()
	pool := rentmin.NewSolverPool(1)

	// A nil problem panics inside the solve; the panic fails the batch
	// and every other item is still solved.
	sols, err := pool.SolveBatchContext(context.Background(), []*rentmin.Problem{fast, nil, fast, fast}, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("batch with a panicking item: err = %v, want the panic", err)
	}
	started := 4
	for _, i := range []int{0, 2, 3} {
		if sols[i].Alloc.Cost != 124 || sols[i].Worker != "" {
			t.Errorf("item %d: cost %d worker %q, want 124 solved in process", i, sols[i].Alloc.Cost, sols[i].Worker)
		}
	}

	// The deadline stops the slow item mid-search and leaves the last
	// one unstarted.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	sols, err = pool.SolveBatchContext(ctx, []*rentmin.Problem{fast, slow, slow}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled batch: err = %v, want context.DeadlineExceeded", err)
	}
	for _, s := range sols {
		if s.Alloc.GraphThroughput != nil {
			started++
		}
		if s.Worker != "" {
			t.Errorf("in-process solve attributed to worker %q", s.Worker)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the batches, want the baseline %d", n, base)
	}
	stats := pool.WorkerStats()
	if len(stats) != 1 {
		t.Fatalf("WorkerStats has %d members, want 1", len(stats))
	}
	if s := stats[0]; s.Name != "" || s.InFlight != 0 || s.Dispatched != int64(started) {
		t.Errorf("member %q: in flight %d, dispatched %d; want \"\", 0, %d", s.Name, s.InFlight, s.Dispatched, started)
	}
}
