package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rentmin/internal/lp"
)

func TestStrongBranchingSameOptimum(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{13, 7, 9, 4},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{3, 1, 2, 1}, Rel: lp.GE, RHS: 23},
				{Coeffs: []float64{1, 2, 1, 3}, Rel: lp.GE, RHS: 17},
				{Coeffs: []float64{2, 1, 3, 1}, Rel: lp.GE, RHS: 19},
			},
		},
		Integer: []bool{true, true, true, true},
	}
	plain := solveOK(t, p, nil)
	strong := solveOK(t, p, &Options{StrongBranch: 4})
	if plain.Status != Optimal || strong.Status != Optimal {
		t.Fatalf("statuses %v / %v", plain.Status, strong.Status)
	}
	if math.Abs(plain.Objective-strong.Objective) > 1e-9 {
		t.Errorf("strong branching changed optimum: %g vs %g", strong.Objective, plain.Objective)
	}
	if want := bruteForceCover(p); math.Abs(plain.Objective-want) > 1e-6 {
		t.Errorf("objective %g, brute force %g", plain.Objective, want)
	}
}

func TestStrongBranchingWithCuts(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{-8, -11},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{5, 7}, Rel: lp.LE, RHS: 17},
			},
		},
		Integer: []bool{true, true},
	}
	res := solveOK(t, p, &Options{StrongBranch: 2, RootCutRounds: 5, IntegralObjective: true})
	wantOptimal(t, res, -27) // (2,1)
}

// Property: strong branching, cuts, pruning and rounding in any
// combination agree with plain branch and bound on random covering IPs.
func TestQuickAllFeaturesAgree(t *testing.T) {
	rounder := func(x []float64) ([]float64, bool) {
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Ceil(v - 1e-9)
		}
		return y, true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		want := bruteForceCover(p)
		for _, opts := range []*Options{
			{StrongBranch: 4},
			{StrongBranch: 4, RootCutRounds: 6},
			{StrongBranch: 4, RootCutRounds: 6, IntegralObjective: true, Rounder: rounder},
			{RootCutRounds: 6},
		} {
			res, err := Solve(p, opts)
			if err != nil || res.Status != Optimal {
				return false
			}
			if math.Abs(res.Objective-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Strong branching usually explores no more nodes than most-fractional
// branching; verify on a non-trivial instance (not a strict theorem, but
// a stable regression on this fixed instance).
func TestStrongBranchingReducesNodes(t *testing.T) {
	obj := []float64{17, 11, 5, 13, 7}
	row1 := []float64{3, 2, 1, 4, 2}
	row2 := []float64{1, 3, 2, 1, 4}
	p := &Problem{
		LP: lp.Problem{
			Objective: obj,
			Constraints: []lp.Constraint{
				{Coeffs: row1, Rel: lp.GE, RHS: 47.5},
				{Coeffs: row2, Rel: lp.GE, RHS: 33.5},
			},
		},
		Integer: []bool{true, true, true, true, true},
	}
	plain := solveOK(t, p, nil)
	strong := solveOK(t, p, &Options{StrongBranch: 5})
	if math.Abs(plain.Objective-strong.Objective) > 1e-9 {
		t.Fatalf("optima differ: %g vs %g", plain.Objective, strong.Objective)
	}
	if strong.Nodes > plain.Nodes {
		t.Logf("note: strong branching used more nodes (%d > %d) on this instance", strong.Nodes, plain.Nodes)
	}
}

// TestReliableVariableNotProbed pins the reliability rule: a variable
// observed once in each direction is scored from its pseudocosts and
// never probed again, while one seen in a single direction still is.
// Unobserved variables are estimated with the mean pseudocost, so among
// them the more fractional ranks first.
func TestReliableVariableNotProbed(t *testing.T) {
	s := &solver{
		work: &Problem{Integer: []bool{true, true, false, true, true}},
		pcs: []pseudocost{
			{}, // column 0: no history
			{n: [2]int32{1, 1}, sum: [2]float64{4, 6}}, // column 1: reliable
			{n: [2]int32{2, 0}, sum: [2]float64{8, 0}}, // column 3: down only
			{}, // column 4: no history
		},
	}
	x := []float64{2.5, 1.5, 0.5, 3.5, 7.1}
	probes, best := s.branchCandidates(x, 8)
	var got []int
	for _, c := range probes {
		got = append(got, c.j)
	}
	// Means: down (4 + 8/2)/2 = 4, up 6. Scores: column 0 (2·3) = 6,
	// column 3 (2 (own) · 3) = 6, column 4 (0.4·5.4) = 2.16.
	if want := []int{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("probes = %v, want %v", got, want)
	}
	if best.j != 1 || best.k != 1 || math.Abs(best.score-6) > 1e-12 {
		t.Fatalf("reliable candidate = %+v, want column 1 with score 6", best)
	}
	if probes, _ := s.branchCandidates(x, 2); len(probes) != 2 || probes[1].j != 3 {
		t.Fatalf("probe limit 2: %+v", probes)
	}

	// Every variable reliable: nothing is probed.
	for k := range s.pcs {
		s.pcs[k].n = [2]int32{1, 1}
	}
	if probes, best := s.branchCandidates(x, 8); len(probes) != 0 || best.j < 0 {
		t.Fatalf("all reliable: probes %+v, best %+v", probes, best)
	}
}

// denseCoverMILP builds an integer covering problem with n columns and
// the given number of dense GE rows; at 14×6 its tree runs to dozens of
// nodes, so most columns become reliable partway through the search.
func denseCoverMILP(n, rows int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	p := &Problem{
		LP:      lp.Problem{Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = float64(3 + r.Intn(17))
		p.Integer[j] = true
	}
	for i := 0; i < rows; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(r.Intn(7))
		}
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{
			Coeffs: row, Rel: lp.GE, RHS: float64(40+7*i) + 0.5,
		})
	}
	return p
}

// TestReliabilityBranchingDeterministic: the search repeats exactly —
// node, pivot and LP-solve counts included — and proves the optimum of
// plain branch and bound.
func TestReliabilityBranchingDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		p := denseCoverMILP(14, 6, seed)
		want := solveOK(t, p, nil).Objective
		opts := &Options{StrongBranch: 8}
		a := solveOK(t, p, opts)
		b := solveOK(t, p, opts)
		if a.Status != Optimal || b.Status != Optimal {
			t.Fatalf("seed %d: status %v / %v", seed, a.Status, b.Status)
		}
		if a.Nodes != b.Nodes || a.LPIterations != b.LPIterations || a.LPSolves != b.LPSolves {
			t.Errorf("seed %d: rerun diverged: nodes %d/%d, pivots %d/%d, LP solves %d/%d",
				seed, a.Nodes, b.Nodes, a.LPIterations, b.LPIterations, a.LPSolves, b.LPSolves)
		}
		if a.Objective != want || b.Objective != want {
			t.Errorf("seed %d: objective %g / %g, want %g", seed, a.Objective, b.Objective, want)
		}
	}
}
