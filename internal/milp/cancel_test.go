package milp

import (
	"context"
	"math"
	"testing"
	"time"

	"rentmin/internal/lp"
)

// coveringProblem returns an integer covering instance with n variables,
// big enough to take several branch-and-bound rounds.
func coveringProblem(n int) *Problem {
	obj := make([]float64, n)
	row := make([]float64, n)
	for i := range obj {
		obj[i] = float64(3 + (i*7)%11)
		row[i] = float64(2 + (i*5)%7)
	}
	p := &Problem{
		LP: lp.Problem{
			Objective: obj,
			Constraints: []lp.Constraint{
				{Coeffs: row, Rel: lp.GE, RHS: 1000.5},
			},
		},
		Integer: make([]bool, n),
	}
	for i := range p.Integer {
		p.Integer[i] = true
	}
	return p
}

// A context cancelled before the search starts must stop it like a time
// limit: NoSolution without an incumbent, Feasible with one — never an
// error.
func TestSolveContextPreCancelled(t *testing.T) {
	p := coveringProblem(14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := SolveContext(ctx, p, &Options{})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if res.Status != NoSolution {
		t.Errorf("status = %v, want no-solution for a pre-cancelled search without incumbent", res.Status)
	}

	inc := make([]float64, 14)
	inc[0] = math.Ceil(1000.5 / 2)
	res, err = SolveContext(ctx, p, &Options{Incumbent: inc})
	if err != nil {
		t.Fatalf("SolveContext with incumbent: %v", err)
	}
	if res.Status != Feasible {
		t.Errorf("status = %v, want feasible (the warm start survives cancellation)", res.Status)
	}
	if res.Gap <= 0 {
		t.Errorf("cancelled feasible result must report a positive gap, got %g", res.Gap)
	}
	if res.Bound > res.Objective {
		t.Errorf("bound %g above objective %g", res.Bound, res.Objective)
	}
}

// A deadline that expires mid-search must return the incumbent found so
// far for every worker count, sequential and parallel alike.
func TestSolveContextDeadlineMidSearch(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := coveringProblem(16)
		// The warm-start incumbent is installed before the search begins,
		// so however early the deadline lands the search has a best-so-far
		// point to return.
		inc := make([]float64, 16)
		inc[0] = math.Ceil(1000.5 / 2)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		res, err := SolveContext(ctx, p, &Options{Workers: workers, Incumbent: inc})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: SolveContext: %v", workers, err)
		}
		if res.Status != Feasible && res.Status != Optimal {
			t.Errorf("workers=%d: status = %v, want feasible or optimal", workers, res.Status)
		}
		if res.Status == Feasible {
			if res.X == nil {
				t.Errorf("workers=%d: feasible result without a point", workers)
			}
			if res.Gap <= 0 {
				t.Errorf("workers=%d: feasible result must report a positive gap", workers)
			}
		}
	}
}

// Background-context solves must be unaffected: Solve delegates to
// SolveContext and still proves optimality.
func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	p := coveringProblem(8)
	want := solveOK(t, p, &Options{})
	got, err := SolveContext(context.Background(), p, &Options{})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if got.Status != Optimal || got.Objective != want.Objective {
		t.Errorf("SolveContext = (%v, %g), Solve = (%v, %g)", got.Status, got.Objective, want.Status, want.Objective)
	}
}

// The waste counter: zero for the sequential search (it prunes at pop
// time, never speculating), deterministic for a fixed worker count, and
// consistent with the LP solve split.
func TestWastedLPSolves(t *testing.T) {
	seq := solveOK(t, coveringProblem(16), &Options{Workers: 1})
	if seq.WastedLPSolves != 0 {
		t.Errorf("sequential search reported %d wasted LP solves, want 0", seq.WastedLPSolves)
	}
	a := solveOK(t, coveringProblem(16), &Options{Workers: 4})
	b := solveOK(t, coveringProblem(16), &Options{Workers: 4})
	if a.WastedLPSolves != b.WastedLPSolves {
		t.Errorf("waste not reproducible for fixed workers: %d vs %d", a.WastedLPSolves, b.WastedLPSolves)
	}
	if a.Objective != seq.Objective {
		t.Errorf("parallel objective %g != sequential %g", a.Objective, seq.Objective)
	}
	if a.WastedLPSolves > a.LPSolves {
		t.Errorf("wasted %d exceeds total LP solves %d", a.WastedLPSolves, a.LPSolves)
	}
}

// An instance where the parallel search provably speculates, so the
// counter is exercised on a nonzero case. min 1.01·x1+x2 subject to
// x1+x2 >= 3 and 2·x1+x2 >= 4.5: the root relaxation's unique optimum is
// the fractional vertex (1.5, 1.5), and branching on x1 yields the
// integral child (2, 1) with bound 3.02 and the fractional child
// (1, 2.5) with bound 3.51. Round two pops both: the integral child
// (better bound) finishes first and installs incumbent 3.02, which
// prunes its batch sibling — whose two child LPs phase 2 already solved.
// Those two solves are exactly the speculation waste; the sequential
// search pops the nodes one at a time, prunes at pop, and wastes
// nothing.
func TestWastedLPSolvesNonzeroOnMidRoundPrune(t *testing.T) {
	prob := func() *Problem {
		return &Problem{
			LP: lp.Problem{
				Objective: []float64{1.01, 1},
				Constraints: []lp.Constraint{
					{Coeffs: []float64{1, 1}, Rel: lp.GE, RHS: 3},
					{Coeffs: []float64{2, 1}, Rel: lp.GE, RHS: 4.5},
				},
			},
			Integer: []bool{true, true},
		}
	}
	par := solveOK(t, prob(), &Options{Workers: 2})
	wantOptimal(t, par, 3.02)
	if par.WastedLPSolves != 2 {
		t.Errorf("parallel WastedLPSolves = %d, want 2 (both children of the mid-round-pruned sibling)", par.WastedLPSolves)
	}
	seq := solveOK(t, prob(), &Options{Workers: 1})
	wantOptimal(t, seq, 3.02)
	if seq.WastedLPSolves != 0 {
		t.Errorf("sequential WastedLPSolves = %d, want 0", seq.WastedLPSolves)
	}
}
