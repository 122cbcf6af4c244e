package rentmin_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"rentmin"
)

// slowSeed is a Generate seed whose Fig8-scale instance (below) needs
// multiple seconds of exact solve on current hardware — verified when the
// test was written; TestSolveContextCancelStopsMidSearch skips itself if
// a future machine proves the optimum inside the cancellation window.
const slowSeed = 0xF198

// slowProblem generates a Figure-8-scale instance (10 alternatives of
// 100-200 tasks over 50 machine types) whose exact solve takes several
// seconds cold — slow enough that a cancellation landing after ~100ms
// provably stopped the search mid-flight.
func slowProblem(t testing.TB) *rentmin.Problem {
	t.Helper()
	p, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 10, MinTasks: 100, MaxTasks: 200, MutatePercent: 0.3,
		NumTypes: 50, CostMin: 1, CostMax: 100,
		ThroughputMin: 5, ThroughputMax: 25,
	}, slowSeed)
	if err != nil {
		t.Fatal(err)
	}
	p.Target = 120
	return p
}

// A cancelled SolveContext must come back quickly with the best-so-far
// allocation and Proven == false — the acceptance test for threading
// cancellation through rentmin.Solve → solve.ILP → milp: without the
// between-nodes stop this instance runs for multiple seconds.
func TestSolveContextCancelStopsMidSearch(t *testing.T) {
	p := slowProblem(t)
	const cancelAfter = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
	defer cancel()

	start := time.Now()
	sol, err := rentmin.SolveContext(ctx, p, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if sol.Proven {
		// Only a machine that proves this Fig8-scale optimum inside the
		// cancellation window could reach this; the probe solve takes
		// seconds on current hardware.
		t.Skipf("instance solved to optimality in %v, too fast to observe cancellation", elapsed)
	}
	// The search must have stopped shortly after the deadline: well under
	// the multi-second cold solve, with generous slack for race-detector
	// builds and slow CI.
	if limit := 20 * cancelAfter; elapsed > limit {
		t.Errorf("cancelled solve took %v, want < %v", elapsed, limit)
	}
	// The incumbent must be a real allocation for the target.
	if got := sol.Alloc.TotalThroughput(); got < p.Target {
		t.Errorf("incumbent throughput %d below target %d", got, p.Target)
	}
	if sol.Alloc.Cost <= 0 {
		t.Errorf("incumbent cost %d, want positive", sol.Alloc.Cost)
	}
	if sol.Bound > float64(sol.Alloc.Cost) {
		t.Errorf("bound %g above incumbent cost %d", sol.Bound, sol.Alloc.Cost)
	}
}

// A cancelled batch stops promptly: in-flight solves keep their best
// incumbent, problems never started stay zero-valued, and the error
// reports the cancellation.
func TestSolveBatchContextCancelsPromptly(t *testing.T) {
	fast := rentmin.IllustratingExample()
	fast.Target = 70
	problems := []*rentmin.Problem{fast, slowProblem(t), slowProblem(t), slowProblem(t)}

	pool := rentmin.NewSolverPool(1) // sequential: the slow tail cannot all start
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()

	start := time.Now()
	sols, err := pool.SolveBatchContext(ctx, problems, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 6*time.Second {
		t.Errorf("cancelled batch took %v, want a prompt stop (each slow problem alone needs seconds)", elapsed)
	}
	if len(sols) != len(problems) {
		t.Fatalf("got %d solutions for %d problems", len(sols), len(problems))
	}
	if sols[0].Alloc.GraphThroughput == nil || sols[0].Alloc.Cost != 124 {
		t.Errorf("fast problem not solved before cancellation: %+v", sols[0])
	}
	unsolved := 0
	for _, s := range sols[1:] {
		if s.Alloc.GraphThroughput == nil {
			unsolved++
		} else if s.Proven {
			t.Errorf("slow problem reported a proven optimum inside the deadline window")
		}
	}
	if unsolved == 0 {
		t.Errorf("every slow problem produced an allocation; expected the 300ms deadline to skip some of the sequential tail")
	}
}

// SolveContext without a deadline must behave exactly like Solve.
func TestSolveContextBackground(t *testing.T) {
	p := rentmin.IllustratingExample()
	p.Target = 70
	sol, err := rentmin.SolveContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if !sol.Proven || sol.Alloc.Cost != 124 {
		t.Errorf("got cost %d proven=%v, want proven cost 124", sol.Alloc.Cost, sol.Proven)
	}
	if sol.LPSolves <= 0 {
		t.Errorf("LPSolves = %d, want positive", sol.LPSolves)
	}
}

// A solve cancelled before it starts stops before its root LP and keeps
// its H1 seed. No price is negative, so its bound is 0, not -Inf, and the
// solution encodes as JSON, as a daemon must answer it.
func TestPreCancelledSolveEncodes(t *testing.T) {
	p := rentmin.IllustratingExample()
	p.Target = 70
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := rentmin.SolveContext(ctx, p, nil)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if sol.Proven || sol.Bound != 0 {
		t.Errorf("proven %v, bound %v: want an unproven seed with bound 0", sol.Proven, sol.Bound)
	}
	if _, err := json.Marshal(sol); err != nil {
		t.Errorf("json.Marshal: %v", err)
	}
}
