package milp

import (
	"testing"

	"rentmin/internal/lp"
)

// rootBasisProblem is a small pure-integer covering instance with a
// fractional LP root, so the root relaxation genuinely runs.
func rootBasisProblem() *Problem {
	return &Problem{
		LP: lp.Problem{
			Objective: []float64{3, 2, 4},
			Constraints: []lp.Constraint{
				dense([]float64{1, 2, 1}, lp.GE, 7),
				dense([]float64{2, 1, 3}, lp.GE, 5),
			},
		},
		Integer: []bool{true, true, true},
	}
}

// A re-solve seeded with the previous solve's RootBasis must restore it
// (RootLPWarm), prove the same optimum, and hand back a basis of its own
// for the next link of the chain.
func TestRootBasisReuse(t *testing.T) {
	opts := &Options{}
	first := solveOK(t, rootBasisProblem(), opts)
	if first.Status != Optimal {
		t.Fatalf("first solve status = %v", first.Status)
	}
	if first.RootBasis == nil {
		t.Fatal("first solve returned no root basis")
	}
	if first.RootLPWarm {
		t.Error("first solve claims a warm root with no seed")
	}

	second := solveOK(t, rootBasisProblem(), &Options{RootBasis: first.RootBasis})
	if second.Status != Optimal || second.Objective != first.Objective {
		t.Fatalf("re-solve: status %v obj %g, want optimal %g", second.Status, second.Objective, first.Objective)
	}
	if !second.RootLPWarm {
		t.Error("re-solve did not restore the seeded root basis")
	}
	if second.RootBasis == nil {
		t.Error("re-solve returned no root basis of its own")
	}
}

// A seeded root skips cut rounds (the row set must stay restorable), and
// DisableWarmLP must ignore the seed entirely.
func TestRootBasisSeedSkipsCutsAndDisableWarm(t *testing.T) {
	first := solveOK(t, rootBasisProblem(), &Options{RootCutRounds: 4})
	seeded := solveOK(t, rootBasisProblem(), &Options{RootCutRounds: 4, RootBasis: first.RootBasis})
	if seeded.CutRounds != 0 {
		t.Errorf("seeded root ran %d cut rounds, want 0", seeded.CutRounds)
	}
	if seeded.Objective != first.Objective {
		t.Errorf("seeded objective %g != %g", seeded.Objective, first.Objective)
	}

	cold := solveOK(t, rootBasisProblem(), &Options{RootBasis: first.RootBasis, DisableWarmLP: true})
	if cold.RootLPWarm {
		t.Error("DisableWarmLP still warm-started the root")
	}
	if cold.Objective != first.Objective {
		t.Errorf("cold objective %g != %g", cold.Objective, first.Objective)
	}
}

// A basis from a differently-shaped problem must fall back cold, not fail.
func TestRootBasisShapeMismatchFallsBackCold(t *testing.T) {
	first := solveOK(t, rootBasisProblem(), nil)

	other := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				dense([]float64{1, 2}, lp.GE, 3),
			},
		},
		Integer: []bool{true, true},
	}
	res := solveOK(t, other, &Options{RootBasis: first.RootBasis})
	wantOptimal(t, res, 2)
	if res.RootLPWarm {
		t.Error("shape-mismatched basis reported a warm root")
	}
}
