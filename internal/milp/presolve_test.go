package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rentmin/internal/lp"
)

// --- per-rule unit tests ------------------------------------------------------

// Bound tightening: 2x+3y <= 12 with x,y >= 0 integer has no explicit
// upper bounds, but the row's activity implies x <= 6 and y <= 4.
func TestPresolveBoundTightening(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{-1, -1},
			Constraints: []lp.Constraint{
				dense([]float64{2, 3}, lp.LE, 12),
			},
		},
		Integer: []bool{true, true},
	}
	red := Presolve(p, math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	if red.Stats.BoundsTightened < 2 {
		t.Errorf("BoundsTightened = %d, want >= 2", red.Stats.BoundsTightened)
	}
	if hi := red.P.LP.UpperBound(0); math.Abs(hi-6) > 1e-9 {
		t.Errorf("x upper bound = %g, want 6", hi)
	}
	if hi := red.P.LP.UpperBound(1); math.Abs(hi-4) > 1e-9 {
		t.Errorf("y upper bound = %g, want 4", hi)
	}
}

// Property: a tightened bound never cuts off an integer point feasible for
// the original problem — every brute-force-feasible point fits the reduced
// box and satisfies the reduced rows after dropping the fixed coordinates.
func TestQuickPresolveKeepsIntegerPoints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		red := Presolve(p, math.Inf(1))
		n := p.LP.NumVars()
		k := coverBox(p)
		feasible := func(x []float64) bool {
			for _, c := range p.LP.Constraints {
				dot := c.Dot(x)
				if dot < c.RHS-1e-9 {
					return false
				}
			}
			return true
		}
		anyFeasible := false
		ok := true
		x := make([]float64, n)
		var rec func(int)
		rec = func(i int) {
			if !ok {
				return
			}
			if i == n {
				if !feasible(x) {
					return
				}
				anyFeasible = true
				if red.Infeasible {
					ok = false
					return
				}
				// The point must survive the reduction: fixed coordinates
				// match, free coordinates are inside the reduced box and
				// satisfy the reduced rows.
				for ri, j := range red.keep {
					if x[j] < red.P.LP.LowerBound(ri)-1e-9 || x[j] > red.P.LP.UpperBound(ri)+1e-9 {
						ok = false
						return
					}
				}
				for j := 0; j < n; j++ {
					if red.isFixed[j] && math.Abs(x[j]-red.fixedVal[j]) > 1e-9 {
						// Fixing picked a different value for this point; that
						// is fine as long as the fixed value is no worse, which
						// the equivalence property below checks. Here we only
						// require points fixed by bound-closure to survive.
						if red.P.LP.NumVars() > 0 {
							return
						}
					}
				}
				for _, c := range red.P.LP.Constraints {
					dot := 0.0
					for k, ri := range c.Idx {
						dot += c.Val[k] * x[red.keep[ri]]
					}
					switch c.Rel {
					case lp.GE:
						if dot < c.RHS-1e-6 {
							ok = false
						}
					case lp.LE:
						if dot > c.RHS+1e-6 {
							ok = false
						}
					case lp.EQ:
						if math.Abs(dot-c.RHS) > 1e-6 {
							ok = false
						}
					}
				}
				return
			}
			for v := 0; v <= k; v++ {
				x[i] = float64(v)
				rec(i + 1)
			}
			x[i] = 0
		}
		rec(0)
		_ = anyFeasible
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// coverBox is a per-variable enumeration bound for covering problems: the
// count that satisfies every row alone.
func coverBox(p *Problem) int {
	k := 0
	for _, c := range p.LP.Constraints {
		for _, v := range c.Val {
			if v > 0 {
				if need := int(math.Ceil(c.RHS / v)); need > k {
					k = need
				}
			}
		}
	}
	return k
}

// Redundant-row elimination: with x in [0,2], the row x <= 5 can never
// bind and must disappear.
func TestPresolveRedundantRowRemoved(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{-1, 1},
			Hi:        []float64{2, 3},
			Constraints: []lp.Constraint{
				dense([]float64{1, 0}, lp.LE, 5),
				dense([]float64{1, 1}, lp.GE, 2),
			},
		},
		Integer: []bool{true, true},
	}
	red := Presolve(p, math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	if red.Stats.RowsRemoved < 1 {
		t.Errorf("RowsRemoved = %d, want >= 1", red.Stats.RowsRemoved)
	}
	for _, c := range red.P.LP.Constraints {
		if c.Rel == lp.LE {
			t.Errorf("redundant LE row survived presolve: %+v", c)
		}
	}
}

// Fixed-variable substitution: the EQ row pins x = 3; substituting it
// turns the coverage row into y >= 2, which tightening then converts to a
// bound, leaving the row redundant and y an empty column fixed at its
// cheapest value — the fixpoint solves the whole instance. Postsolve must
// restore both coordinates.
func TestPresolveFixedVariableSubstitution(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{5, 1},
			Constraints: []lp.Constraint{
				dense([]float64{1, 0}, lp.EQ, 3),
				dense([]float64{1, 1}, lp.GE, 5),
			},
		},
		Integer: []bool{true, true},
	}
	red := Presolve(p, math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	if red.Stats.ColsFixed != 2 {
		t.Errorf("ColsFixed = %d, want 2 (substitution then empty-column cascade)", red.Stats.ColsFixed)
	}
	if red.P.LP.NumVars() != 0 {
		t.Fatalf("reduced vars = %d, want 0 (fully solved by presolve)", red.P.LP.NumVars())
	}
	if math.Abs(red.ObjOffset-17) > 1e-9 {
		t.Errorf("ObjOffset = %g, want 17 (5*3 + 1*2)", red.ObjOffset)
	}
	x := red.Postsolve(nil)
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Errorf("Postsolve = %v, want [3 2]", x)
	}
	// End to end the solver must report the presolved optimum.
	wantOptimal(t, solveOK(t, p, &Options{Presolve: true}), 17)
}

// Empty-column elimination: a variable in no constraint is fixed at the
// bound its objective prefers (here the finite upper bound, since its
// coefficient is negative).
func TestPresolveEmptyColumn(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, -2},
			Hi:        []float64{math.Inf(1), 5},
			Constraints: []lp.Constraint{
				dense([]float64{1, 0}, lp.GE, 1),
			},
		},
		Integer: []bool{true, true},
	}
	red := Presolve(p, math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	// y is empty from the start and fixes at its upper bound; x >= 1 then
	// becomes a bound, the row goes redundant, and x fixes at its own lower
	// bound — the cascade again solves the instance outright.
	if red.Stats.ColsFixed != 2 {
		t.Errorf("ColsFixed = %d, want 2", red.Stats.ColsFixed)
	}
	if math.Abs(red.ObjOffset-(-9)) > 1e-9 {
		t.Errorf("ObjOffset = %g, want -9 (1*1 - 2*5)", red.ObjOffset)
	}
	x := red.Postsolve(nil)
	if math.Abs(x[0]-1) > 1e-9 {
		t.Errorf("x fixed at %g, want its derived lower bound 1", x[0])
	}
	if math.Abs(x[1]-5) > 1e-9 {
		t.Errorf("empty column fixed at %g, want its upper bound 5", x[1])
	}
	wantOptimal(t, solveOK(t, p, &Options{Presolve: true}), -9)
}

// Coefficient reduction: 3x+2y <= 8 with x,y in [0,2] integer has slack 1
// when x steps below its bound, so the row strengthens to 2x+2y <= 6 —
// the same integer feasible set, a strictly tighter LP relaxation.
func TestPresolveCoefficientReduction(t *testing.T) {
	mk := func() *Problem {
		return &Problem{
			LP: lp.Problem{
				Objective: []float64{-1, -1},
				Hi:        []float64{2, 2},
				Constraints: []lp.Constraint{
					dense([]float64{3, 2}, lp.LE, 8),
				},
			},
			Integer: []bool{true, true},
		}
	}
	red := Presolve(mk(), math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	if red.Stats.CoeffsReduced < 1 {
		t.Errorf("CoeffsReduced = %d, want >= 1", red.Stats.CoeffsReduced)
	}
	if len(red.P.LP.Constraints) != 1 {
		t.Fatalf("reduced rows = %d, want 1", len(red.P.LP.Constraints))
	}
	c := red.P.LP.Constraints[0]
	if math.Abs(coef(c, 0)-2) > 1e-9 || math.Abs(coef(c, 1)-2) > 1e-9 || math.Abs(c.RHS-6) > 1e-9 {
		t.Errorf("reduced row = %v·x[%v] <= %g, want 2x+2y <= 6", c.Val, c.Idx, c.RHS)
	}
	// The integer feasible sets must be identical over the box.
	orig := mk()
	for x := 0; x <= 2; x++ {
		for y := 0; y <= 2; y++ {
			inOrig := 3*x+2*y <= 8
			inRed := c.Dot([]float64{float64(x), float64(y)}) <= c.RHS+1e-9
			if inOrig != inRed {
				t.Errorf("point (%d,%d): original feasible=%v, reduced feasible=%v", x, y, inOrig, inRed)
			}
		}
	}
	_ = orig
	// And the LP relaxation is strictly tighter: at the fractional LP
	// vertex of the original row (x=4/3, y=2) the reduced row is violated.
	if v := c.Dot([]float64{4.0 / 3, 2}) - c.RHS; v <= 1e-9 {
		t.Errorf("reduced row not tighter at the old LP vertex (slack %g)", -v)
	}
}

// The mirrored rule: a negative integer coefficient reduces through the
// variable's lower bound. -3x+2y <= 2 with x in [0,2], y in [0,2]: at
// x = lo+1 = 1 the row has slack d = 2-(2*2)-(-3*1) = 1 <= 3, so the
// coefficient steps to -2 and the RHS to 2 (d*lo = 0).
func TestPresolveCoefficientReductionNegative(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, -1},
			Hi:        []float64{2, 2},
			Constraints: []lp.Constraint{
				dense([]float64{-3, 2}, lp.LE, 2),
			},
		},
		Integer: []bool{true, true},
	}
	red := Presolve(p, math.Inf(1))
	if red.Infeasible {
		t.Fatal("presolve reported infeasible")
	}
	if red.Stats.CoeffsReduced < 1 {
		t.Errorf("CoeffsReduced = %d, want >= 1", red.Stats.CoeffsReduced)
	}
	// Whatever form the row takes, the integer feasible set must be
	// unchanged and the reductions must not lose the optimum.
	plain, err := Solve(p, nil)
	if err != nil || plain.Status != Optimal {
		t.Fatalf("plain solve: %v %v", err, plain.Status)
	}
	pres, err := Solve(p, &Options{Presolve: true})
	if err != nil || pres.Status != Optimal {
		t.Fatalf("presolve solve: %v %v", err, pres.Status)
	}
	if math.Abs(plain.Objective-pres.Objective) > 1e-6 {
		t.Errorf("presolve changed the optimum: %g vs %g", pres.Objective, plain.Objective)
	}
}

// Infeasibility detection: crossed bounds through two rows.
func TestPresolveDetectsInfeasible(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				dense([]float64{1}, lp.GE, 5),
				dense([]float64{1}, lp.LE, 2),
			},
		},
		Integer: []bool{true},
	}
	if red := Presolve(p, math.Inf(1)); !red.Infeasible {
		t.Error("presolve missed an infeasible bound crossing")
	}
	res := solveOK(t, p, &Options{Presolve: true})
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// The phantom cutoff row: with the optimum as cutoff, presolve derives
// finite bounds on a default-bounds covering problem (the recipe model's
// natural shape) without ever emitting the cutoff as a constraint.
func TestPresolveCutoffTightensDefaultBounds(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				dense([]float64{1, 2}, lp.GE, 3),
			},
		},
		Integer: []bool{true, true},
	}
	// Without a cutoff nothing has a finite upper bound, so no tightening.
	if red := Presolve(p, math.Inf(1)); red.Stats.BoundsTightened != 0 {
		t.Errorf("tightened %d bounds without a cutoff", red.Stats.BoundsTightened)
	}
	// The cutoff x1+x2 <= 2 bounds both variables and must not be emitted.
	red := Presolve(p, 2)
	if red.Infeasible {
		t.Fatal("non-strict cutoff at the optimum must keep the optimum")
	}
	if red.Stats.BoundsTightened == 0 {
		t.Error("cutoff produced no bound tightening")
	}
	for ri := 0; ri < red.P.LP.NumVars(); ri++ {
		if math.IsInf(red.P.LP.UpperBound(ri), 1) {
			t.Errorf("reduced var %d kept an infinite upper bound", ri)
		}
	}
	if len(red.P.LP.Constraints) > len(p.LP.Constraints) {
		t.Errorf("phantom cutoff row leaked into the output (%d rows)", len(red.P.LP.Constraints))
	}
	// Both optima (1,1) and (0,2) must survive into the reduced space.
	res, err := Solve(red.P, nil)
	if err != nil || res.Status != Optimal {
		t.Fatalf("reduced solve: %v %+v", err, res)
	}
	if math.Abs(res.Objective+red.ObjOffset-2) > 1e-6 {
		t.Errorf("lifted optimum = %g, want 2", res.Objective+red.ObjOffset)
	}
}

// A cutoff-infeasible reduction proves the incumbent optimal: the solver
// must return it as Optimal, not report Infeasible.
func TestPresolveCutoffInfeasibleProvesIncumbent(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				dense([]float64{1, 2}, lp.GE, 3),
			},
		},
		Integer: []bool{true, true},
	}
	res := solveOK(t, p, &Options{Presolve: true, Incumbent: []float64{1, 1}})
	wantOptimal(t, res, 2)
}

// --- equivalence battery ------------------------------------------------------

// Presolve must never change the answer: same status, same objective, on
// the fixed instances of this package's test suite, with and without the
// extra cut machinery and warm starts.
func TestPresolveEquivalenceFixedInstances(t *testing.T) {
	rounder := func(x []float64) ([]float64, bool) {
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Ceil(v - 1e-9)
		}
		return y, true
	}
	cases := []struct {
		name string
		p    *Problem
		opts *Options
	}{
		{"covering", &Problem{
			LP: lp.Problem{
				Objective:   []float64{1, 1},
				Constraints: []lp.Constraint{dense([]float64{1, 2}, lp.GE, 3)},
			},
			Integer: []bool{true, true},
		}, nil},
		{"knapsack", &Problem{
			LP: lp.Problem{
				Objective:   []float64{-10, -13},
				Constraints: []lp.Constraint{dense([]float64{3, 4}, lp.LE, 7)},
			},
			Integer: []bool{true, true},
		}, nil},
		{"mixed", &Problem{
			LP: lp.Problem{
				Objective:   []float64{1, 5},
				Constraints: []lp.Constraint{dense([]float64{1, 1}, lp.GE, 2.5)},
			},
			Integer: []bool{false, true},
		}, nil},
		{"cover4", coverProblem(), nil},
		{"cover4-cuts", coverProblem(), &Options{RootCutRounds: 8}},
		{"cover4-warm", coverProblem(), &Options{Incumbent: []float64{7, 0, 5, 0}, RootCutRounds: 8, Rounder: rounder}},
	}
	for _, tc := range cases {
		plain := solveOK(t, tc.p, tc.opts)
		var popts Options
		if tc.opts != nil {
			popts = *tc.opts
		}
		popts.Presolve = true
		pres := solveOK(t, tc.p, &popts)
		if plain.Status != pres.Status {
			t.Errorf("%s: status %v with presolve, %v without", tc.name, pres.Status, plain.Status)
			continue
		}
		if plain.Status == Optimal && math.Abs(plain.Objective-pres.Objective) > 1e-6 {
			t.Errorf("%s: objective %g with presolve, %g without", tc.name, pres.Objective, plain.Objective)
		}
		if pres.Status == Optimal {
			// The lifted incumbent must be feasible for the original problem.
			s := &solver{p: tc.p}
			if _, err := s.checkFeasible(pres.X); err != nil {
				t.Errorf("%s: presolve incumbent infeasible: %v", tc.name, err)
			}
		}
	}
}

// Property: presolve -> solve -> postsolve matches brute force on random
// covering MILPs, with and without cuts and integral-objective pruning.
func TestQuickPresolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		for _, q := range []*Problem{p, halfCosts(p)} {
			want := bruteForceCover(q)
			for _, opts := range []*Options{
				{Presolve: true},
				{Presolve: true, RootCutRounds: 6},
			} {
				res, err := Solve(q, opts)
				if err != nil || res.Status != Optimal {
					return false
				}
				if math.Abs(res.Objective-want) > 1e-6 {
					return false
				}
				if res.CutRounds > opts.RootCutRounds {
					return false
				}
				s := &solver{p: q}
				if obj, err := s.checkFeasible(res.X); err != nil || math.Abs(obj-res.Objective) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// --- determinism --------------------------------------------------------------

// TestPresolveCountersDeterministic pins the determinism contract for
// presolve reductions and root cut counters: they are identical run to
// run.
func TestPresolveCountersDeterministic(t *testing.T) {
	type counters struct {
		stats     PresolveStats
		cuts      int
		cutRounds int
		objective float64
	}
	capture := func() counters {
		res := solveOK(t, coverProblem(), &Options{
			Presolve:      true,
			RootCutRounds: 8,
			Incumbent:     []float64{7, 0, 5, 0},
		})
		if res.Status != Optimal {
			t.Fatalf("status %v", res.Status)
		}
		return counters{res.Presolve, res.Cuts, res.CutRounds, res.Objective}
	}
	ref := capture()
	for run := 0; run < 3; run++ {
		if a := capture(); a != ref {
			t.Errorf("run %d: counters differ run-to-run: %+v vs %+v", run, a, ref)
		}
	}
}
