package solve_test

import (
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/experiments"
	"rentmin/internal/graphgen"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// TestILPOptionsWorkersIgnored: the deprecated ILPOptions.Workers changes
// nothing. On the Fig. 8-scale instance (target 120, 150-node budget) a
// solve that asks for two workers runs exactly the sequential search:
// the same nodes, pivots, LP solves and cost.
func TestILPOptionsWorkersIgnored(t *testing.T) {
	p, err := graphgen.Generate(experiments.Fig8Setting(0).Gen, rng.New(0xF198).Sub('c', 3))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewCostModel(p)
	var res [2]solve.ILPResult
	for i, w := range []int{1, 2} {
		if res[i], err = solve.ILP(m, 120, &solve.ILPOptions{Workers: w, NodeLimit: 150}); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
	}
	if res[0].SearchStats != res[1].SearchStats || res[0].Alloc.Cost != res[1].Alloc.Cost {
		t.Errorf("Workers 2 changed the search: nodes %d/%d, pivots %d/%d, LP solves %d/%d, cost %d/%d",
			res[0].Nodes, res[1].Nodes, res[0].LPIterations, res[1].LPIterations,
			res[0].LPSolves, res[1].LPSolves, res[0].Alloc.Cost, res[1].Alloc.Cost)
	}
}
