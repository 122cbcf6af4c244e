package milp

import (
	"testing"

	"rentmin/internal/lp"
)

// TestUnresolvedChildIsNotProven: a child LP that fails twice, warm and
// then cold, is set aside with its parent's bound rather than pruned as
// infeasible. In min 7x0 + 8x1 s.t. 4x0 + 5x1 >= 6 the root relaxation
// is x = (0, 1.2) with bound 9.6, and x1 is the only branching candidate.
// Its down child x1 <= 1 holds the optimum (2, 0) of cost 14; its up
// child x1 >= 2 is integral at (0, 2), cost 16. With the down child's LP
// failing, the search finds only 16 and must not call it optimal: the
// result is Feasible with a bound no higher than the root's.
func TestUnresolvedChildIsNotProven(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective:   []float64{7, 8},
			Constraints: []lp.Constraint{dense([]float64{4, 5}, lp.GE, 6)},
		},
		Integer: []bool{true, true},
	}
	wantOptimal(t, solveOK(t, p, nil), 14)

	calls := 0
	failChildLP = func() bool {
		calls++
		return calls <= 2 // the first child's warm solve and its cold retry
	}
	defer func() { failChildLP = nil }()
	res := solveOK(t, p, nil)
	if res.Status != Feasible {
		t.Fatalf("status %v with objective %g, want feasible: an unresolved child holds the optimum",
			res.Status, res.Objective)
	}
	if res.Objective != 16 {
		t.Errorf("objective %g, want the up child's 16", res.Objective)
	}
	if res.Bound > 9.6+1e-9 {
		t.Errorf("bound %g above the unresolved child's 9.6", res.Bound)
	}
	if res.UnresolvedLPs != 1 {
		t.Errorf("UnresolvedLPs = %d, want 1", res.UnresolvedLPs)
	}
	if !(res.Bound < res.Objective) {
		t.Errorf("bound %g, want below the objective %g", res.Bound, res.Objective)
	}
}
