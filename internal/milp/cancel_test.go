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
				dense(row, lp.GE, 1000.5),
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
	if !(res.Bound < res.Objective) {
		t.Errorf("cancelled feasible result must leave its bound %g below its objective %g", res.Bound, res.Objective)
	}
	if res.Bound > res.Objective {
		t.Errorf("bound %g above objective %g", res.Bound, res.Objective)
	}
}

// A deadline that expires mid-search must return the incumbent found so
// far.
func TestSolveContextDeadlineMidSearch(t *testing.T) {
	p := coveringProblem(16)
	// The warm-start incumbent is installed before the search begins, so
	// however early the deadline lands the search has a best-so-far point
	// to return.
	inc := make([]float64, 16)
	inc[0] = math.Ceil(1000.5 / 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	res, err := SolveContext(ctx, p, &Options{Incumbent: inc})
	cancel()
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if res.Status != Feasible && res.Status != Optimal {
		t.Errorf("status = %v, want feasible or optimal", res.Status)
	}
	if res.Status == Feasible {
		if res.X == nil {
			t.Errorf("feasible result without a point")
		}
		if !(res.Bound < res.Objective) {
			t.Errorf("feasible result must leave its bound %g below its objective %g", res.Bound, res.Objective)
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
