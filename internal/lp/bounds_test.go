package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// asRows re-encodes p's variable bounds as explicit constraint rows
// (x_j <= hi, x_j >= lo for non-default entries) on a problem with
// default bounds — the scheme the solver used before bounds moved into
// the ratio test, kept here as the reference encoding for equivalence
// tests and the bounded-vs-row benchmark.
func asRows(p *Problem) *Problem {
	q := &Problem{
		Objective:   append([]float64(nil), p.Objective...),
		Constraints: append([]Constraint(nil), p.Constraints...),
	}
	n := p.NumVars()
	for j := 0; j < n; j++ {
		if lo := p.LowerBound(j); lo != 0 {
			row := make([]float64, n)
			row[j] = 1
			q.Constraints = append(q.Constraints, dense(row, GE, lo))
		}
		if hi := p.UpperBound(j); !math.IsInf(hi, 1) {
			row := make([]float64, n)
			row[j] = 1
			q.Constraints = append(q.Constraints, dense(row, LE, hi))
		}
	}
	return q
}

// checkInBounds asserts x respects p's variable bounds within tol.
func checkInBounds(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	for j, v := range x {
		if lo := p.LowerBound(j); v < lo-1e-6 {
			t.Fatalf("x[%d] = %g below lower bound %g", j, v, lo)
		}
		if hi := p.UpperBound(j); v > hi+1e-6 {
			t.Fatalf("x[%d] = %g above upper bound %g", j, v, hi)
		}
	}
}

// TestBoundsUpperActive: an upper bound that cuts off the unbounded
// direction. max x+y (min -x-y) with x <= 4, y <= 2.5 and no rows at
// all: the optimum is the bound corner, reached purely by bound flips.
func TestBoundsUpperActive(t *testing.T) {
	p := &Problem{Objective: []float64{-1, -1}, Hi: []float64{4, 2.5}}
	sol := solveOK(t, p)
	wantOptimal(t, sol, -6.5, []float64{4, 2.5})
	checkInBounds(t, p, sol.X)
}

// TestBoundsLowerShift: lower bounds shift the feasible box, including a
// negative lower bound (the variable may go below zero).
func TestBoundsLowerShift(t *testing.T) {
	// min x + 2y s.t. x + y >= 1, x in [-5, +inf), y in [0.5, +inf).
	// Optimum: y at its lower bound 0.5, x = 0.5 -> 1.5.
	p := &Problem{
		Objective:   []float64{1, 2},
		Constraints: []Constraint{dense([]float64{1, 1}, GE, 1)},
		Lo:          []float64{-5, 0.5},
	}
	sol := solveOK(t, p)
	wantOptimal(t, sol, 1.5, []float64{0.5, 0.5})

	// Remove the row: the optimum drops to the corner (-5, 0.5).
	q := &Problem{Objective: []float64{1, 2}, Lo: []float64{-5, 0.5}}
	wantOptimal(t, solveOK(t, q), -4, []float64{-5, 0.5})
}

// TestBoundsFixedVariable: lo == hi pins a variable; the solver must
// treat it as a constant on both the primal and the warm path.
func TestBoundsFixedVariable(t *testing.T) {
	// min x + 3y s.t. x + y >= 5 with y fixed at 2 -> x = 3, obj 9.
	p := &Problem{
		Objective:   []float64{1, 3},
		Constraints: []Constraint{dense([]float64{1, 1}, GE, 5)},
		Lo:          []float64{0, 2},
		Hi:          []float64{math.Inf(1), 2},
	}
	parent := solveOK(t, p)
	wantOptimal(t, parent, 9, []float64{3, 2})

	// Tighten the fixed point via a warm start: y fixed at 4 -> x = 1.
	q := p.Clone()
	q.SetBounds(1, 4, 4)
	warm, err := SolveFrom(q, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, warm, 13, []float64{1, 4})
}

// TestBoundsBealeViaBound re-runs Beale's cycling example with the x3
// cap expressed as a variable bound instead of a row: same optimum, and
// the anti-cycling machinery must still terminate.
func TestBoundsBealeViaBound(t *testing.T) {
	p := &Problem{
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []Constraint{
			dense([]float64{0.25, -60, -1.0 / 25, 9}, LE, 0),
			dense([]float64{0.5, -90, -1.0 / 50, 3}, LE, 0),
		},
		Hi: []float64{math.Inf(1), math.Inf(1), 1, math.Inf(1)},
	}
	sol := solveOK(t, p)
	wantOptimal(t, sol, -0.05, []float64{0.04, 0, 1, 0})
	checkInBounds(t, p, sol.X)
}

// TestBoundsDegenerateFlip exercises a bound flip tied with a degenerate
// (zero) row ratio: x1 <= x2 holds with both at 0, so the first entering
// step is fully degenerate, and the caps must still be honored on the way
// to the optimum.
func TestBoundsDegenerateFlip(t *testing.T) {
	p := &Problem{
		Objective:   []float64{-1, -1},
		Constraints: []Constraint{dense([]float64{1, -1}, LE, 0)},
		Hi:          []float64{1, 1},
	}
	sol := solveOK(t, p)
	wantOptimal(t, sol, -2, []float64{1, 1})

	// A zero-capacity variable (fixed at its lower bound 0) with an
	// attractive cost must flip once, degenerately, and terminate.
	q := &Problem{
		Objective:   []float64{-5, -1},
		Constraints: []Constraint{dense([]float64{0, 1}, LE, 3)},
		Hi:          []float64{0, math.Inf(1)},
	}
	wantOptimal(t, solveOK(t, q), -3, []float64{0, 3})
}

// TestBoundsInfeasibleCrossingDual drives a warm start into a bound
// combination that crosses the constraints: the dual ratio test must
// prove infeasibility (no entering column for the violated row) on the
// warm path itself, agreeing with the cold solver.
func TestBoundsInfeasibleCrossingDual(t *testing.T) {
	p := &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			dense([]float64{1, 1, 1}, GE, 7),
			dense([]float64{1, 0, 2}, GE, 4),
		},
	}
	parent := solveOK(t, p)
	if parent.Status != Optimal || parent.Basis == nil {
		t.Fatalf("parent not warm-startable: %+v", parent)
	}
	// Capping every variable at 2 makes x+y+z >= 7 unreachable.
	q := p.Clone()
	for j := 0; j < 3; j++ {
		q.SetBounds(j, 0, 2)
	}
	warm, err := SolveFrom(q, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("warm status = %v, want infeasible", warm.Status)
	}
	if !warm.Warm {
		t.Error("infeasibility proof fell back to the cold solver; want the dual ratio test to detect it")
	}
	cold := solveOK(t, q)
	if cold.Status != Infeasible {
		t.Fatalf("cold status = %v, want infeasible", cold.Status)
	}
}

// TestBoundsCrossedRejected: Validate must reject lo > hi and non-finite
// lower bounds before any solver state is built, and so must a compiled
// model's SolveFrom, which validates only the bounds it is handed.
func TestBoundsCrossedRejected(t *testing.T) {
	cases := map[string]*Problem{
		"crossed": {Objective: []float64{1}, Lo: []float64{3}, Hi: []float64{2}},
		"-inf lo": {Objective: []float64{1}, Lo: []float64{math.Inf(-1)}},
		"nan hi":  {Objective: []float64{1}, Hi: []float64{math.NaN()}},
		"-inf hi": {Objective: []float64{1}, Hi: []float64{math.Inf(-1)}},
		"len lo":  {Objective: []float64{1, 2}, Lo: []float64{0}},
		"len hi":  {Objective: []float64{1, 2}, Hi: []float64{5, 5, 5}},
	}
	for name, p := range cases {
		if _, err := Solve(p, nil); err == nil {
			t.Errorf("Solve accepted %s bounds", name)
		}
		md, err := NewModel(&Problem{Objective: p.Objective})
		if err != nil {
			t.Fatal(err)
		}
		if err := md.SolveFrom(new(Solution), p.Lo, p.Hi, nil); err == nil {
			t.Errorf("Model.SolveFrom accepted %s bounds", name)
		}
		md.Release()
	}
}

// TestBoundsWarmTightenBeatsCold: re-optimizing after one bound patch
// (the branch-and-bound child shape) must stay on the warm path and cost
// fewer pivots than a cold solve — the point of the bounded scheme.
func TestBoundsWarmTightenBeatsCold(t *testing.T) {
	p := &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			dense([]float64{1, 1, 1}, GE, 7),
			dense([]float64{1, 0, 2}, GE, 4),
		},
	}
	parent := solveOK(t, p)
	q := p.Clone()
	q.SetBounds(2, 0, 3) // cap z below its relaxed value
	cold := solveOK(t, q)
	warm, err := SolveFrom(q, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("bound-patch warm start rejected")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	checkInBounds(t, q, warm.X)
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm iterations = %d, cold = %d; warm start saved nothing",
			warm.Iterations, cold.Iterations)
	}
}

// TestQuickBoundedEqualsRowBounds is the encoding cross-validation: for
// random covering LPs with random finite bounds, solving with bounds in
// the ratio test must agree (status and objective) with solving the same
// instance re-encoded as explicit bound rows.
func TestQuickBoundedEqualsRowBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverLP(r, 2+r.Intn(5), 1+r.Intn(4))
		n := p.NumVars()
		for j := 0; j < n; j++ {
			switch r.Intn(3) {
			case 0: // default bounds
			case 1: // finite cap, possibly binding or infeasible
				p.SetBounds(j, 0, float64(r.Intn(12)))
			case 2: // shifted lower bound plus cap
				lo := float64(r.Intn(4))
				p.SetBounds(j, lo, lo+float64(r.Intn(10)))
			}
		}
		bounded, err := Solve(p, nil)
		if err != nil {
			return false
		}
		rows, err := Solve(asRows(p), nil)
		if err != nil {
			return false
		}
		if bounded.Status != rows.Status {
			return false
		}
		if bounded.Status != Optimal {
			return true
		}
		scale := 1 + math.Abs(rows.Objective)
		if math.Abs(bounded.Objective-rows.Objective) > 1e-6*scale {
			return false
		}
		for j, v := range bounded.X {
			if v < p.LowerBound(j)-1e-6 || v > p.UpperBound(j)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundedWarmEqualsCold: warm starts across random single-bound
// tightenings (the exact branch-and-bound child shape) agree with the
// cold solver on status and objective.
func TestQuickBoundedWarmEqualsCold(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverLP(r, 3+r.Intn(5), 2+r.Intn(4))
		parent, err := Solve(p, nil)
		if err != nil {
			return false
		}
		if parent.Status != Optimal || parent.Basis == nil {
			return true
		}
		q := p.Clone()
		j := r.Intn(q.NumVars())
		if r.Intn(2) == 0 {
			q.SetBounds(j, 0, math.Floor(parent.X[j]))
		} else {
			q.SetBounds(j, math.Ceil(parent.X[j]+0.5), math.Inf(1))
		}
		warm, err := SolveFrom(q, parent.Basis)
		if err != nil {
			return false
		}
		cold, err := Solve(q, nil)
		if err != nil {
			return false
		}
		if warm.Status != cold.Status {
			return false
		}
		if warm.Status != Optimal {
			return true
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-5*scale {
			return false
		}
		for j, v := range warm.X {
			if v < q.LowerBound(j)-1e-6 || v > q.UpperBound(j)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
