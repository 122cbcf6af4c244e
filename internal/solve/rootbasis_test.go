package solve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/lp"
)

// The structural basis solves BuildMILP's root LP by construction: the
// restore is taken warm, takes 0 pivots, and its objective is
// target·min_j UnitRate(j). Checked on the paper's example and on random
// shared-type instances, several targets each.
func TestStructuralRootBasisIsWarm(t *testing.T) {
	ex := core.IllustratingExample()
	models := []*core.CostModel{core.NewCostModel(ex)}
	r := rand.New(rand.NewSource(7))
	for range 40 {
		models = append(models, randomSharedProblem(r))
	}
	for i, m := range models {
		minRate := slices.Min(m.UnitRate)
		for _, target := range []int{1, 7, 70, 200} {
			prob := BuildMILP(m, target)
			sol, err := lp.SolveFrom(&prob.LP, lp.NewBasis(prob.LP.NumVars(), structuralBasis(m)), nil)
			if err != nil {
				t.Fatalf("model %d target %d: %v", i, target, err)
			}
			if sol.Status != lp.Optimal || !sol.Warm || sol.Iterations != 0 {
				t.Errorf("model %d target %d: status %v warm %v after %d pivots, want optimal, warm, 0 pivots",
					i, target, sol.Status, sol.Warm, sol.Iterations)
			}
			if want := float64(target) * minRate; math.Abs(sol.Objective-want) > 1e-9*math.Max(1, want) {
				t.Errorf("model %d target %d: root objective %g, want target·min UnitRate = %g", i, target, sol.Objective, want)
			}
		}
	}
}

// A warm-started ILP starts its root from the structural basis and runs
// no root cuts; a one-shot ILP solves its root cold and cuts it. Both
// prove the same cost.
func TestWarmStartedILPStartsFromStructuralRoot(t *testing.T) {
	m := core.NewCostModel(core.IllustratingExample())
	for _, target := range []int{10, 70, 110} {
		cold, err := ILP(m, target, &ILPOptions{DisablePresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		_, h1 := BestSingleGraph(m, target)
		warm, err := ILP(m, target, &ILPOptions{DisablePresolve: true, WarmStart: h1.GraphThroughput})
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Proven || !warm.Proven || warm.Alloc.Cost != cold.Alloc.Cost {
			t.Fatalf("target %d: warm %d (proven %v), cold %d (proven %v)", target, warm.Alloc.Cost, warm.Proven, cold.Alloc.Cost, cold.Proven)
		}
		if cold.RootLPWarm || !warm.RootLPWarm {
			t.Errorf("target %d: RootLPWarm cold %v, warm %v; want false, true", target, cold.RootLPWarm, warm.RootLPWarm)
		}
		if warm.CutRounds != 0 {
			t.Errorf("target %d: warm-started root ran %d cut rounds", target, warm.CutRounds)
		}
	}
}
