package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// knapsackLP: max 8x+11y (min -8x-11y) s.t. 5x+7y <= 17, integer optimum
// at (2,1) = 27; LP relaxation is fractional.
func knapsackLP() *Problem {
	return &Problem{
		Objective: []float64{-8, -11},
		Constraints: []Constraint{
			dense([]float64{5, 7}, LE, 17),
		},
	}
}

func TestSolveGomoryImprovesBound(t *testing.T) {
	p := knapsackLP()
	plain, err := Solve(p, nil)
	if err != nil || plain.Status != Optimal {
		t.Fatalf("plain solve: %v %v", err, plain.Status)
	}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatalf("SolveGomory: %v", err)
	}
	if res.Solution.Status != Optimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	// Cuts only tighten: the bound must not decrease (objective of a
	// minimization can only go up), and must never pass the integer
	// optimum -27.
	if res.Solution.Objective < plain.Objective-1e-9 {
		t.Errorf("cut bound %g below LP bound %g", res.Solution.Objective, plain.Objective)
	}
	if res.Solution.Objective > -27+1e-6 {
		t.Errorf("cut bound %g exceeds integer optimum -27", res.Solution.Objective)
	}
	if len(res.Cuts) == 0 {
		t.Error("no cuts generated on a fractional LP")
	}
}

// Every generated cut must keep every integer feasible point. We
// enumerate the integer points of the knapsack and check them against all
// cuts.
func TestGomoryCutsValidForIntegerPoints(t *testing.T) {
	p := knapsackLP()
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x <= 3; x++ {
		for y := 0; y <= 2; y++ {
			if 5*x+7*y > 17 {
				continue
			}
			for ci, cut := range res.Cuts {
				dot := cut.Dot([]float64{float64(x), float64(y)})
				if dot < cut.RHS-1e-6 {
					t.Errorf("cut %d eliminates integer point (%d,%d): %g < %g",
						ci, x, y, dot, cut.RHS)
				}
			}
		}
	}
}

func TestSolveGomoryIntegralLPNoCuts(t *testing.T) {
	// An LP whose relaxation is already integral: no cuts needed.
	p := &Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 0}, GE, 3),
			dense([]float64{0, 1}, GE, 4),
		},
	}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cuts) != 0 {
		t.Errorf("generated %d cuts on an integral relaxation", len(res.Cuts))
	}
	if math.Abs(res.Solution.Objective-7) > 1e-9 {
		t.Errorf("objective = %g, want 7", res.Solution.Objective)
	}
}

func TestSolveGomoryInfeasiblePassthrough(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{1}, GE, 5),
			dense([]float64{1}, LE, 2),
		},
	}
	res, err := SolveGomory(p, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Solution.Status)
	}
}

func TestSolveGomoryRespectsRoundLimit(t *testing.T) {
	res, err := SolveGomory(knapsackLP(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 1 {
		t.Errorf("rounds = %d despite limit 1", res.Rounds)
	}
}

func TestSolveGomoryDoesNotMutateInput(t *testing.T) {
	p := knapsackLP()
	before := len(p.Constraints)
	if _, err := SolveGomory(p, nil, 5); err != nil {
		t.Fatal(err)
	}
	if len(p.Constraints) != before {
		t.Error("SolveGomory appended cuts to the caller's problem")
	}
}

// Property: on random integer covering problems, the cut-augmented bound
// lies between the LP bound and the integer optimum (computed by brute
// force over a small box).
func TestQuickGomoryBoundSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		m := 1 + r.Intn(3)
		p := &Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = float64(1 + r.Intn(12))
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(r.Intn(4))
			}
			row[r.Intn(n)] = float64(1 + r.Intn(4))
			p.Constraints = append(p.Constraints, dense(row, GE, float64(1+r.Intn(10))))
		}
		lpSol, err := Solve(p, nil)
		if err != nil || lpSol.Status != Optimal {
			return false
		}
		res, err := SolveGomory(p, nil, 8)
		if err != nil || res.Solution.Status != Optimal {
			return false
		}
		// Brute-force integer optimum over a generous box.
		bound := 0
		for _, c := range p.Constraints {
			for _, v := range c.Val {
				if v > 0 {
					if k := int(math.Ceil(c.RHS / v)); k > bound {
						bound = k
					}
				}
			}
		}
		best := math.Inf(1)
		x := make([]float64, n)
		var rec func(int)
		rec = func(i int) {
			if i == n {
				for _, c := range p.Constraints {
					dot := c.Dot(x)
					if dot < c.RHS-1e-9 {
						return
					}
				}
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += p.Objective[j] * x[j]
				}
				if obj < best {
					best = obj
				}
				return
			}
			for v := 0; v <= bound; v++ {
				x[i] = float64(v)
				rec(i + 1)
			}
			x[i] = 0
		}
		rec(0)
		return res.Solution.Objective >= lpSol.Objective-1e-6 &&
			res.Solution.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSolveGomoryArenaReuse pins the cut loop's workspace reuse: every
// round re-solves the grown problem warm on the one workspace the loop
// holds, so the final round must land where a cold solve of the
// cut-augmented problem on a fresh workspace lands, and a second run —
// which picks up a pooled workspace still sized for the grown problem —
// must reproduce the first bit for bit. The packing instance generates
// multiple cut rounds, so the reuse path actually runs on a grown problem.
func TestSolveGomoryArenaReuse(t *testing.T) {
	p := &Problem{
		Objective: []float64{-7, -2, -5, -9},
		Constraints: []Constraint{
			dense([]float64{3, 1, 2, 4}, LE, 10),
			dense([]float64{1, 3, 3, 1}, LE, 11),
			dense([]float64{4, 2, 1, 3}, LE, 13),
		},
	}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d; instance no longer exercises workspace reuse", res.Rounds)
	}
	grown := p.Clone()
	grown.Constraints = append(grown.Constraints, res.Cuts...)
	var cold Solution
	new(sparseSolver).run(&cold, grown, nil)
	if cold.Status != Optimal || res.Solution.Status != Optimal {
		t.Fatalf("status: loop %v, cold %v", res.Solution.Status, cold.Status)
	}
	if math.Abs(cold.Objective-res.Solution.Objective) > 1e-9 {
		t.Errorf("loop objective %g, cold solve of the grown problem %g", res.Solution.Objective, cold.Objective)
	}
	if !satisfies(grown.Constraints, res.Solution.X, 1e-6) {
		t.Errorf("loop point %v violates the cut-augmented rows", res.Solution.X)
	}

	again, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != res.Rounds || len(again.Cuts) != len(res.Cuts) ||
		again.Solution.Objective != res.Solution.Objective ||
		again.Solution.Iterations != res.Solution.Iterations {
		t.Fatalf("rerun differs: %d rounds, %d cuts, obj %g, %d pivots; first %d, %d, %g, %d",
			again.Rounds, len(again.Cuts), again.Solution.Objective, again.Solution.Iterations,
			res.Rounds, len(res.Cuts), res.Solution.Objective, res.Solution.Iterations)
	}
	for i, c := range res.Cuts {
		if again.Cuts[i].RHS != c.RHS || !slices.Equal(again.Cuts[i].Idx, c.Idx) || !slices.Equal(again.Cuts[i].Val, c.Val) {
			t.Fatalf("cut %d differs on rerun: %+v vs %+v", i, again.Cuts[i], c)
		}
	}
}

// --- bounded-variable Gomory regression suite --------------------------------
//
// These instances all carry finite variable bounds, which the old
// default-bounds guard rejected outright (maxRounds forced to 0, no cuts).
// The bounded scheme derives cuts in the shifted/complemented coordinates,
// so each must now produce cuts that tighten the bound without ever
// cutting an integer point of the box.

// boxKnapsackLP: max 8x+11y (min -8x-11y) s.t. 5x+7y <= 35 with
// x,y in [0,3]. LP optimum ~-55.43 at (2.8,3); integer optimum -49 at (2,3).
func boxKnapsackLP() *Problem {
	return &Problem{
		Objective: []float64{-8, -11},
		Hi:        []float64{3, 3},
		Constraints: []Constraint{
			dense([]float64{5, 7}, LE, 35),
		},
	}
}

func TestSolveGomoryBoundedVariables(t *testing.T) {
	p := boxKnapsackLP()
	plain, err := Solve(p, nil)
	if err != nil || plain.Status != Optimal {
		t.Fatalf("plain solve: %v %v", err, plain.Status)
	}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatalf("SolveGomory: %v", err)
	}
	if res.Solution.Status != Optimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	if len(res.Cuts) == 0 {
		t.Fatal("no cuts on a fractional bounded-variable LP (old guard regression)")
	}
	if res.Solution.Objective < plain.Objective-1e-9 {
		t.Errorf("cut bound %g below LP bound %g", res.Solution.Objective, plain.Objective)
	}
	if res.Solution.Objective > -49+1e-6 {
		t.Errorf("cut bound %g exceeds integer optimum -49", res.Solution.Objective)
	}
	if res.Solution.Objective <= plain.Objective+1e-9 {
		t.Errorf("cuts did not improve the bound (%g vs %g)", res.Solution.Objective, plain.Objective)
	}
}

// Every cut must keep every integer point of the box.
func TestGomoryBoundedCutsValidForIntegerPoints(t *testing.T) {
	p := boxKnapsackLP()
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x <= 3; x++ {
		for y := 0; y <= 3; y++ {
			if 5*x+7*y > 35 {
				continue
			}
			for ci, cut := range res.Cuts {
				dot := cut.Dot([]float64{float64(x), float64(y)})
				if dot < cut.RHS-1e-6 {
					t.Errorf("cut %d eliminates integer point (%d,%d): %g < %g",
						ci, x, y, dot, cut.RHS)
				}
			}
		}
	}
}

// Shifted lower bounds: the same knapsack translated to x,y in [1,4]
// exercises the lo-shift path of the cut translation.
func TestGomoryShiftedLowerBounds(t *testing.T) {
	p := &Problem{
		Objective: []float64{-8, -11},
		Lo:        []float64{1, 1},
		Hi:        []float64{4, 4},
		Constraints: []Constraint{
			dense([]float64{5, 7}, LE, 47), // 35 shifted by 5+7
		},
	}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Status != Optimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	// Integer optimum: (x,y) = (3,4) -> 5*3+7*4 = 43 <= 47, value -68.
	best := math.Inf(1)
	for x := 1; x <= 4; x++ {
		for y := 1; y <= 4; y++ {
			if 5*x+7*y > 47 {
				continue
			}
			if v := float64(-8*x - 11*y); v < best {
				best = v
			}
			for ci, cut := range res.Cuts {
				dot := cut.Dot([]float64{float64(x), float64(y)})
				if dot < cut.RHS-1e-6 {
					t.Errorf("cut %d eliminates integer point (%d,%d): %g < %g",
						ci, x, y, dot, cut.RHS)
				}
			}
		}
	}
	if res.Solution.Objective > best+1e-6 {
		t.Errorf("cut bound %g exceeds integer optimum %g", res.Solution.Objective, best)
	}
}

// Fractional bounds still bail: the rounding argument needs integral
// bounds, so such problems must pass through cut-free rather than emit
// invalid cuts.
func TestSolveGomoryFractionalBoundsNoCuts(t *testing.T) {
	p := boxKnapsackLP()
	p.Hi = []float64{2.5, 3}
	res, err := SolveGomory(p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cuts) != 0 {
		t.Errorf("generated %d cuts over fractional bounds", len(res.Cuts))
	}
	if res.Solution.Status != Optimal {
		t.Errorf("status = %v, want optimal passthrough", res.Solution.Status)
	}
}

// Property: on random box-bounded knapsacks the cut-augmented bound stays
// sandwiched between the LP bound and the brute-force integer optimum,
// and every cut keeps every integer point of the box.
func TestQuickGomoryBoundedSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2)
		p := &Problem{
			Objective: make([]float64, n),
			Hi:        make([]float64, n),
		}
		box := make([]int, n)
		for j := 0; j < n; j++ {
			p.Objective[j] = -float64(1 + r.Intn(12))
			box[j] = 1 + r.Intn(4)
			p.Hi[j] = float64(box[j])
		}
		row := make([]float64, n)
		sum := 0
		for j := range row {
			v := 1 + r.Intn(6)
			row[j] = float64(v)
			sum += v * box[j]
		}
		p.Constraints = []Constraint{
			dense(row, LE, float64(1+r.Intn(sum+1))),
		}
		lpSol, err := Solve(p, nil)
		if err != nil || lpSol.Status != Optimal {
			return true // skip degenerate draws
		}
		res, err := SolveGomory(p, nil, 8)
		if err != nil || res.Solution.Status != Optimal {
			return false
		}
		best := math.Inf(1)
		x := make([]float64, n)
		var rec func(int) bool
		rec = func(i int) bool {
			if i == n {
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += row[j] * x[j]
				}
				if dot > p.Constraints[0].RHS+1e-9 {
					return true
				}
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += p.Objective[j] * x[j]
				}
				if obj < best {
					best = obj
				}
				for _, cut := range res.Cuts {
					cdot := cut.Dot(x)
					if cdot < cut.RHS-1e-6 {
						return false // cut eliminated an integer point
					}
				}
				return true
			}
			for v := 0; v <= box[i]; v++ {
				x[i] = float64(v)
				if !rec(i + 1) {
					return false
				}
			}
			x[i] = 0
			return true
		}
		if !rec(0) {
			return false
		}
		return res.Solution.Objective >= lpSol.Objective-1e-6 &&
			res.Solution.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: on random pure integer programs mixing LE, GE and EQ rows
// over boxes with nonzero lower bounds, every cut holds at every integer
// point of the feasible region (brute-forced over the box), so none ever
// cuts off an integer optimum. The mix puts structural columns at both
// bounds and slacks of every sense in the nonbasic set, exercising each
// branch of the cut translation.
func TestQuickGomoryMixedRowsValid(t *testing.T) {
	withCuts := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2)
		p := &Problem{
			Objective: make([]float64, n),
			Lo:        make([]float64, n),
			Hi:        make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Objective[j] = float64(r.Intn(21) - 10)
			p.Lo[j] = float64(r.Intn(3) - 1)
			p.Hi[j] = p.Lo[j] + float64(1+r.Intn(4))
		}
		rels := []Relation{LE, GE, EQ}
		for i, m := 0, 1+r.Intn(3); i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(r.Intn(9) - 3)
			}
			// Anchor the RHS at a random integer point of the box so the
			// region is rarely empty, then loosen inequalities a little.
			rhs := 0.0
			for j := range row {
				rhs += row[j] * (p.Lo[j] + float64(r.Intn(int(p.Hi[j]-p.Lo[j])+1)))
			}
			rel := rels[r.Intn(3)]
			switch rel {
			case LE:
				rhs += float64(r.Intn(3))
			case GE:
				rhs -= float64(r.Intn(3))
			}
			p.Constraints = append(p.Constraints, dense(row, rel, rhs))
		}
		res, err := SolveGomory(p, nil, 8)
		if err != nil {
			return false
		}
		if len(res.Cuts) > 0 {
			withCuts++
		}
		best := math.Inf(1)
		x := make([]float64, n)
		var rec func(int) bool
		rec = func(i int) bool {
			if i == n {
				if !satisfies(p.Constraints, x, 1e-9) {
					return true
				}
				if !satisfies(res.Cuts, x, 1e-6) {
					t.Logf("seed %d: a cut eliminates integer point %v", seed, x)
					return false
				}
				obj := 0.0
				for j := range x {
					obj += p.Objective[j] * x[j]
				}
				best = math.Min(best, obj)
				return true
			}
			for v := p.Lo[i]; v <= p.Hi[i]; v++ {
				x[i] = v
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		if !rec(0) {
			return false
		}
		if math.IsInf(best, 1) || res.Solution.Status != Optimal {
			return true // no integer point: nothing a cut could remove
		}
		return res.Solution.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if withCuts == 0 {
		t.Error("no draw generated a cut; the property checked nothing")
	}
}

// satisfies reports whether x meets every row up to tol.
func satisfies(rows []Constraint, x []float64, tol float64) bool {
	for _, c := range rows {
		dot := c.Dot(x)
		switch c.Rel {
		case LE:
			if dot > c.RHS+tol {
				return false
			}
		case GE:
			if dot < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(dot-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}
