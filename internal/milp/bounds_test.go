package milp

import (
	"context"
	"math"
	"testing"

	"rentmin/internal/lp"
)

// TestBaseProblemBoundsHonored: a MILP whose base problem carries native
// variable bounds (the encoding branching itself now uses) must respect
// them in the incumbent and still prove the right optimum.
func TestBaseProblemBoundsHonored(t *testing.T) {
	// max 10a+13b s.t. 3a+4b <= 7 — unbounded-box optimum is (1,1) = 23.
	knapsack := func() *Problem {
		return &Problem{
			LP: lp.Problem{
				Objective: []float64{-10, -13},
				Constraints: []lp.Constraint{
					dense([]float64{3, 4}, lp.LE, 7),
				},
			},
			Integer: []bool{true, true},
		}
	}

	p := knapsack()
	p.LP.Hi = []float64{1, 1}
	res := solveOK(t, p, nil)
	wantOptimal(t, res, -23)

	// Capping a at 0 forces the all-b solution.
	p = knapsack()
	p.LP.Hi = []float64{0, 1}
	res = solveOK(t, p, nil)
	wantOptimal(t, res, -13)
	if math.Abs(res.X[0]) > 1e-6 {
		t.Errorf("x[0] = %g, want 0 (fixed by its bound)", res.X[0])
	}

	// lo == hi fixes a at 2: 3·2 = 6 leaves room for b = 0 only.
	p = knapsack()
	p.LP.Lo = []float64{2, 0}
	p.LP.Hi = []float64{2, math.Inf(1)}
	res = solveOK(t, p, nil)
	wantOptimal(t, res, -20)
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("x[0] = %g, want 2 (fixed)", res.X[0])
	}
}

// TestBaseProblemBoundsAcrossWorkers: native base bounds keep the
// determinism guarantee — the same optimal objective warm and cold, with
// 1, 2 and 8 solves running at once, and incumbents always inside the
// box.
func TestBaseProblemBoundsAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{3, 21, 77} {
		p := hardCoverMILP(8, seed)
		// Box every variable tightly enough to bind but keep feasibility:
		// each row of hardCoverMILP is coverable by a single variable.
		n := p.LP.NumVars()
		p.LP.Hi = make([]float64, n)
		for j := range p.LP.Hi {
			p.LP.Hi[j] = 25
		}
		var ref float64
		first := true
		for _, w := range workerCounts {
			for _, cold := range []bool{false, true} {
				for _, res := range solveConcurrently(context.Background(), t, p, &Options{DisableWarmLP: cold}, w) {
					if res.Status != Optimal {
						t.Fatalf("seed %d workers %d cold %v: status %v", seed, w, cold, res.Status)
					}
					for j, v := range res.X {
						if v < -1e-6 || v > p.LP.Hi[j]+1e-6 {
							t.Fatalf("seed %d workers %d: x[%d] = %g outside [0, %g]", seed, w, j, v, p.LP.Hi[j])
						}
					}
					if first {
						ref, first = res.Objective, false
					} else if intObj(t, res.Objective) != intObj(t, ref) {
						t.Errorf("seed %d workers %d cold %v: objective %g != reference %g",
							seed, w, cold, res.Objective, ref)
					}
				}
			}
		}
	}
}

// TestInfeasibleByBounds: bounds alone can make the integer program
// empty; the bounded dual ratio test proves it without bound rows.
func TestInfeasibleByBounds(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				dense([]float64{1, 1}, lp.GE, 5),
			},
			Hi: []float64{2, 2},
		},
		Integer: []bool{true, true},
	}
	if res := solveOK(t, p, nil); res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}
