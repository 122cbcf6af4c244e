package lp

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rentmin/internal/lp/lptest"
)

// dense writes a constraint row from a dense coefficient literal.
func dense(coeffs []float64, rel Relation, rhs float64) Constraint {
	idx, val := lptest.Sparse(coeffs)
	return Constraint{Idx: idx, Val: val, Rel: rel, RHS: rhs}
}

// coef returns row c's coefficient in column j.
func coef(c Constraint, j int) float64 {
	if k, ok := slices.BinarySearch(c.Idx, int32(j)); ok {
		return c.Val[k]
	}
	return 0
}

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func wantOptimal(t *testing.T, sol Solution, obj float64, x []float64) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-obj) > 1e-6 {
		t.Errorf("objective = %g, want %g", sol.Objective, obj)
	}
	if x != nil {
		for i := range x {
			if math.Abs(sol.X[i]-x[i]) > 1e-6 {
				t.Errorf("x[%d] = %g, want %g (x=%v)", i, sol.X[i], x[i], sol.X)
			}
		}
	}
}

// Classic Dantzig example: max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18.
// Optimum (2,6) with value 36.
func TestClassicMax(t *testing.T) {
	p := &Problem{
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			dense([]float64{1, 0}, LE, 4),
			dense([]float64{0, 2}, LE, 12),
			dense([]float64{3, 2}, LE, 18),
		},
	}
	wantOptimal(t, solveOK(t, p), -36, []float64{2, 6})
}

// Covering LP: min 10x+18y s.t. x+y >= 7, x >= 2. Optimum (7,0) cost 70.
func TestCoveringGE(t *testing.T) {
	p := &Problem{
		Objective: []float64{10, 18},
		Constraints: []Constraint{
			dense([]float64{1, 1}, GE, 7),
			dense([]float64{1, 0}, GE, 2),
		},
	}
	wantOptimal(t, solveOK(t, p), 70, []float64{7, 0})
}

// Equality system: x+y=10, x-y=2 -> (6,4); minimize x.
func TestEqualitySystem(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			dense([]float64{1, 1}, EQ, 10),
			dense([]float64{1, -1}, EQ, 2),
		},
	}
	wantOptimal(t, solveOK(t, p), 6, []float64{6, 4})
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{1}, LE, 1),
			dense([]float64{1}, GE, 2),
		},
	}
	if sol := solveOK(t, p); sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			dense([]float64{0, 1}, LE, 5),
		},
	}
	if sol := solveOK(t, p); sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	// x >= 0, min x -> 0 at x=0.
	p := &Problem{Objective: []float64{1, 2}}
	wantOptimal(t, solveOK(t, p), 0, []float64{0, 0})
	// min -x -> unbounded.
	p2 := &Problem{Objective: []float64{-1}}
	if sol := solveOK(t, p2); sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

// Negative RHS rows must be normalized correctly: -x <= -3 means x >= 3.
func TestNegativeRHSNormalization(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{-1}, LE, -3),
		},
	}
	wantOptimal(t, solveOK(t, p), 3, []float64{3})
	// And -x >= -3 means x <= 3; minimize -x -> x=3.
	p2 := &Problem{
		Objective: []float64{-1},
		Constraints: []Constraint{
			dense([]float64{-1}, GE, -3),
		},
	}
	wantOptimal(t, solveOK(t, p2), -3, []float64{3})
}

// Beale's classic cycling example; terminates only with anti-cycling.
func TestBealeCycling(t *testing.T) {
	p := &Problem{
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []Constraint{
			dense([]float64{0.25, -60, -1.0 / 25, 9}, LE, 0),
			dense([]float64{0.5, -90, -1.0 / 50, 3}, LE, 0),
			dense([]float64{0, 0, 1, 0}, LE, 1),
		},
	}
	wantOptimal(t, solveOK(t, p), -0.05, []float64{0.04, 0, 1, 0})
}

// Degenerate LP with redundant equality rows (phase-1 leaves an artificial
// basic on a dependent row).
func TestRedundantRows(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 1}, EQ, 4),
			dense([]float64{2, 2}, EQ, 8), // dependent
			dense([]float64{1, 0}, GE, 1),
		},
	}
	sol := solveOK(t, p)
	wantOptimal(t, sol, 4, nil)
	if sol.X[0] < 1-1e-9 {
		t.Errorf("x0 = %g violates x0 >= 1", sol.X[0])
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]*Problem{
		"no vars": {},
		"nan objective": {
			Objective: []float64{math.NaN()},
		},
		"mismatched row": {
			Objective:   []float64{1, 2},
			Constraints: []Constraint{{Idx: []int32{0, 1}, Val: []float64{1}, Rel: LE, RHS: 1}},
		},
		"inf rhs": {
			Objective:   []float64{1},
			Constraints: []Constraint{dense([]float64{1}, LE, math.Inf(1))},
		},
		"nan coeff": {
			Objective:   []float64{1},
			Constraints: []Constraint{dense([]float64{math.NaN()}, LE, 1)},
		},
		// An unknown sense would leave the row's slack fixed at zero and
		// silently solve it as EQ.
		"unknown relation": {
			Objective:   []float64{1},
			Constraints: []Constraint{dense([]float64{1}, Relation(7), 1)},
		},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Solve(p, nil); err == nil {
				t.Errorf("Solve accepted %s", name)
			}
			if _, err := NewModel(p); err == nil {
				t.Errorf("NewModel accepted %s", name)
			}
		})
	}
}

// TestValidateSparseRows pins the sparse row contract: column indices
// strictly ascending and inside [0, n), one value per index, every value
// finite. A rejected row must be named in the error; an empty row is a
// valid (constant) constraint.
func TestValidateSparseRows(t *testing.T) {
	cases := []struct {
		name string
		row  Constraint
	}{
		{"unsorted", Constraint{Idx: []int32{2, 0}, Val: []float64{1, 1}}},
		{"duplicate", Constraint{Idx: []int32{1, 1}, Val: []float64{1, 1}}},
		{"out of range", Constraint{Idx: []int32{0, 3}, Val: []float64{1, 1}}},
		{"negative", Constraint{Idx: []int32{-1, 0}, Val: []float64{1, 1}}},
		{"fewer values", Constraint{Idx: []int32{0, 1}, Val: []float64{1}}},
		{"more values", Constraint{Idx: []int32{0}, Val: []float64{1, 1}}},
		{"nan", Constraint{Idx: []int32{0, 2}, Val: []float64{1, math.NaN()}}},
		{"+inf", Constraint{Idx: []int32{1}, Val: []float64{math.Inf(1)}}},
		{"-inf", Constraint{Idx: []int32{0, 1}, Val: []float64{math.Inf(-1), 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Problem{
				Objective:   []float64{1, 1, 1},
				Constraints: []Constraint{dense([]float64{1, 1, 1}, GE, 1), tc.row},
			}
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.row)
			}
			if !strings.Contains(err.Error(), "constraint 1 ") {
				t.Errorf("error %q does not name constraint 1", err)
			}
		})
	}
	t.Run("empty row", func(t *testing.T) {
		p := &Problem{
			Objective:   []float64{1, 1, 1},
			Constraints: []Constraint{dense([]float64{1, 1, 1}, GE, 1), {Rel: LE, RHS: 0}},
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate rejected an empty row: %v", err)
		}
		wantOptimal(t, solveOK(t, p), 1, nil)
	})
}

func TestCloneDeep(t *testing.T) {
	p := &Problem{
		Objective:   []float64{1, 2},
		Constraints: []Constraint{dense([]float64{1, 1}, GE, 3)},
	}
	q := p.Clone()
	q.Objective[0] = 99
	q.Constraints[0].Val[1] = 99
	q.Constraints[0].Idx[0] = 1
	if p.Objective[0] == 99 || p.Constraints[0].Val[1] == 99 || p.Constraints[0].Idx[0] == 1 {
		t.Error("Clone shares storage")
	}
}

func TestRelationString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("Relation.String mismatch")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Error("Status.String mismatch")
	}
}

// A larger blending problem with a known optimum, mixing all three
// relation kinds.
func TestMixedRelations(t *testing.T) {
	// min 2x + 3y + 4z
	// s.t. x + y + z  = 10
	//      x - y     >= 2
	//      z         <= 3
	//      y + z     >= 4
	// Optimum: push cheap x high. y+z >= 4 forces 4 units off x.
	// Take z=0, y=4, x=6: check x-y=2 ok. Cost 12+12+0 = 24.
	p := &Problem{
		Objective: []float64{2, 3, 4},
		Constraints: []Constraint{
			dense([]float64{1, 1, 1}, EQ, 10),
			dense([]float64{1, -1, 0}, GE, 2),
			dense([]float64{0, 0, 1}, LE, 3),
			dense([]float64{0, 1, 1}, GE, 4),
		},
	}
	wantOptimal(t, solveOK(t, p), 24, []float64{6, 4, 0})
}
