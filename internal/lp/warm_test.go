package lp

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// coveringBase is a small covering LP with a non-degenerate optimum whose
// basis warm starts cleanly: min 10x+18y+7z s.t. x+y+z >= 7, x+2z >= 4.
func coveringBase() *Problem {
	return &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			dense([]float64{1, 1, 1}, GE, 7),
			dense([]float64{1, 0, 2}, GE, 4),
		},
	}
}

// withBound returns p plus the bound row x_j <= hi or x_j >= lo appended.
func withBound(p *Problem, j int, rel Relation, rhs float64) *Problem {
	q := p.Clone()
	row := make([]float64, q.NumVars())
	row[j] = 1
	q.Constraints = append(q.Constraints, dense(row, rel, rhs))
	return q
}

// checkAgainstCold solves q cold and warm (from basis) and requires
// matching status, objective, and a primal feasible warm point.
func checkAgainstCold(t *testing.T, q *Problem, basis *Basis) Solution {
	t.Helper()
	cold, err := Solve(q, nil)
	if err != nil {
		t.Fatalf("cold Solve: %v", err)
	}
	warm, err := SolveFrom(q, basis)
	if err != nil {
		t.Fatalf("SolveFrom: %v", err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm status = %v, cold = %v", warm.Status, cold.Status)
	}
	if cold.Status != Optimal {
		return warm
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("warm objective = %g, cold = %g", warm.Objective, cold.Objective)
	}
	checkFeasible(t, q, warm.X)
	return warm
}

// checkFeasible asserts x satisfies every constraint of p within 1e-6.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	for j, v := range x {
		if v < -1e-6 {
			t.Fatalf("x[%d] = %g negative", j, v)
		}
	}
	for i, c := range p.Constraints {
		dot := c.Dot(x)
		switch c.Rel {
		case LE:
			if dot > c.RHS+1e-6 {
				t.Fatalf("constraint %d: %g > %g", i, dot, c.RHS)
			}
		case GE:
			if dot < c.RHS-1e-6 {
				t.Fatalf("constraint %d: %g < %g", i, dot, c.RHS)
			}
		case EQ:
			if math.Abs(dot-c.RHS) > 1e-6 {
				t.Fatalf("constraint %d: %g != %g", i, dot, c.RHS)
			}
		}
	}
}

// TestSolveFromAppendedBound is the branch-and-bound shape: snapshot the
// parent optimum, append one bound row, re-optimize from the basis.
func TestSolveFromAppendedBound(t *testing.T) {
	p := coveringBase()
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != Optimal || parent.Basis == nil {
		t.Fatalf("parent not warm-startable: %+v", parent)
	}
	// Down branch: cap z below its relaxed value; up branch: force x up.
	for _, q := range []*Problem{
		withBound(p, 2, LE, 3),
		withBound(p, 0, GE, 2),
		withBound(p, 1, GE, 1),
	} {
		warm := checkAgainstCold(t, q, parent.Basis)
		if !warm.Warm {
			t.Errorf("appended-bound solve fell back cold")
		}
	}
}

// TestSolveFromPatchedRHS covers the other child shape: the bound row
// already exists and only its right-hand side moves.
func TestSolveFromPatchedRHS(t *testing.T) {
	p := withBound(coveringBase(), 2, LE, 5)
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Basis == nil {
		t.Fatal("no basis on parent optimum")
	}
	for _, hi := range []float64{4, 3, 1, 0} {
		q := p.Clone()
		q.Constraints[len(q.Constraints)-1].RHS = hi
		checkAgainstCold(t, q, parent.Basis)
	}
}

// TestSolveFromDetectsInfeasible drives the bound past feasibility: the
// dual simplex must prove infeasibility, matching the cold solver.
func TestSolveFromDetectsInfeasible(t *testing.T) {
	p := coveringBase()
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// x+y+z >= 7 with every variable capped at 1 is empty.
	q := p
	for j := 0; j < 3; j++ {
		q = withBound(q, j, LE, 1)
	}
	sol := checkAgainstCold(t, q, parent.Basis)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestSolveFromNilAndMismatchedBasis must transparently fall back cold.
func TestSolveFromNilAndMismatchedBasis(t *testing.T) {
	p := coveringBase()
	sol, err := SolveFrom(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Warm {
		t.Fatalf("nil-basis fallback: %+v", sol)
	}

	// Basis from an unrelated problem with a different variable count.
	other, err := Solve(&Problem{
		Objective:   []float64{1, 1},
		Constraints: []Constraint{dense([]float64{1, 1}, GE, 3)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err = SolveFrom(p, other.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Warm {
		t.Fatalf("mismatched-basis fallback: %+v", sol)
	}
	if math.Abs(sol.Objective-49) > 1e-6 {
		t.Fatalf("objective = %g, want 49 (z=7)", sol.Objective)
	}
}

// TestSolveFromBasisRoundTrip re-solves the unchanged problem from its own
// basis: the restore alone must already be optimal (zero repair pivots
// beyond the restore) and reproduce the same objective and point.
func TestSolveFromBasisRoundTrip(t *testing.T) {
	p := coveringBase()
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SolveFrom(p, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Warm || again.Status != Optimal {
		t.Fatalf("round trip not warm optimal: %+v", again)
	}
	if math.Abs(again.Objective-parent.Objective) > 1e-9 {
		t.Fatalf("objective drifted: %g vs %g", again.Objective, parent.Objective)
	}
	for j := range parent.X {
		if math.Abs(again.X[j]-parent.X[j]) > 1e-9 {
			t.Fatalf("X[%d] drifted: %g vs %g", j, again.X[j], parent.X[j])
		}
	}
}

// TestSolveFromWarmBeatsColdIterations checks the point of the exercise:
// re-optimizing after a single bound change takes fewer pivots than the
// cold two-phase solve.
func TestSolveFromWarmBeatsColdIterations(t *testing.T) {
	p := coveringBase()
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := withBound(p, 2, LE, 3)
	cold, err := Solve(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveFrom(q, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("warm path rejected")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm iterations = %d, cold = %d; warm start saved nothing",
			warm.Iterations, cold.Iterations)
	}
}

// randomCoverLP draws a dense feasible covering LP (GE rows, positive
// coefficients) of the family the MILP solver produces.
func randomCoverLP(r *rand.Rand, n, m int) *Problem {
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(1 + r.Intn(25))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(r.Intn(7))
		}
		row[r.Intn(n)] += 1 // keep every row satisfiable
		p.Constraints = append(p.Constraints, dense(row, GE, float64(5+r.Intn(40))))
	}
	return p
}

// TestSolveFromRandomRoundTrips is the property sweep the satellite task
// asks for: snapshot -> perturb one bound -> SolveFrom agrees with the
// cold solver on status and objective across many random instances.
func TestSolveFromRandomRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(0x5EED))
	warmCount := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		p := randomCoverLP(r, 3+r.Intn(6), 2+r.Intn(4))
		parent, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			continue
		}
		j := r.Intn(p.NumVars())
		var q *Problem
		if r.Intn(2) == 0 {
			q = withBound(p, j, LE, math.Floor(parent.X[j]))
		} else {
			q = withBound(p, j, GE, math.Ceil(parent.X[j]+0.5))
		}
		warm := checkAgainstCold(t, q, parent.Basis)
		if warm.Warm {
			warmCount++
		}
	}
	// The warm path must carry the bulk of the load, not quietly fall
	// back cold; empirically nearly all of these restores succeed.
	if warmCount < trials/2 {
		t.Errorf("warm path used in only %d/%d round trips", warmCount, trials)
	}
}

// TestBealeCyclingWarm pushes Beale's cycling example through the
// dual-simplex path: snapshot its optimum, tighten the x3 cap, and require
// termination at the re-optimized objective (regression guard for the
// unified degeneracy tolerance in both ratio tests).
func TestBealeCyclingWarm(t *testing.T) {
	p := &Problem{
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []Constraint{
			dense([]float64{0.25, -60, -1.0 / 25, 9}, LE, 0),
			dense([]float64{0.5, -90, -1.0 / 50, 3}, LE, 0),
			dense([]float64{0, 0, 1, 0}, LE, 1),
		},
	}
	parent, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != Optimal {
		t.Fatalf("Beale status = %v", parent.Status)
	}
	// Halve the x3 cap: the optimum scales to -0.025.
	q := p.Clone()
	q.Constraints[2].RHS = 0.5
	sol := checkAgainstCold(t, q, parent.Basis)
	if math.Abs(sol.Objective-(-0.025)) > 1e-9 {
		t.Fatalf("objective = %g, want -0.025", sol.Objective)
	}
}

// TestDegenerateTiesTerminate exercises the degenerate regime of the
// leaving-row tie-break: several rows are active at the origin with
// right-hand sides blurred by roundoff-scale noise above the base pricing
// tolerance, so their near-zero ratios must be grouped as one degenerate
// tie (the widened window) for the lexicographic ordering to apply. The
// solver must terminate at the optimum, and the blur must not leak into
// the solution beyond the feasibility guarantee.
func TestDegenerateTiesTerminate(t *testing.T) {
	p := &Problem{
		Objective: []float64{-1, -1, -1},
		Constraints: []Constraint{
			// Degenerate at the origin: ratios ~1e-8, distinct above the
			// 1e-9 pricing tolerance but equal up to roundoff.
			dense([]float64{1, -1, 0}, LE, 1e-8),
			dense([]float64{1, 0, -1}, LE, 3e-8),
			dense([]float64{1, -1, 0}, LE, 2e-8), // duplicate direction
			dense([]float64{0, 1, 0}, LE, 1),
			dense([]float64{0, 0, 1}, LE, 1),
			dense([]float64{1, 0, 0}, LE, 1),
		},
	}
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-3)) > 1e-6 {
		t.Fatalf("objective = %g, want -3", sol.Objective)
	}
	checkFeasible(t, p, sol.X)
}

// TestDualStallFallsBackCold replays a captured branch-and-bound child LP
// (45 rows, 28 columns, from an exact solve of a Fig. 7-scale instance)
// whose parent basis sends the warm dual simplex into a degenerate cycle:
// without a stall guard it ran to the pivot cap, 2000+200·(m+n) pivots,
// before the cold fallback solved it in a few dozen. The warm attempt
// must now give up after at most stallWindow non-improving pivots, and
// the fallback must land on the cold optimum.
func TestDualStallFallsBackCold(t *testing.T) {
	raw, err := os.ReadFile("testdata/dualstall.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Problem Problem
		Basis   []int32
		Flips   []int32
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	p := &c.Problem
	basis := &Basis{rows: c.Basis, flips: c.Flips, n: p.NumVars()}

	cold, err := Solve(p, nil)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve: %v %v", cold.Status, err)
	}
	warm, err := SolveFrom(p, basis)
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm solve: %v %v", warm.Status, err)
	}
	if warm.Warm {
		t.Fatalf("warm path reported success; the captured LP no longer stalls")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("objective = %g, cold = %g", warm.Objective, cold.Objective)
	}
	checkFeasible(t, p, warm.X)
	if wasted := warm.Iterations - cold.Iterations; wasted > 64 {
		t.Fatalf("warm attempt wasted %d pivots (cold %d), want at most 64", wasted, cold.Iterations)
	}
}
