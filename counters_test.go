package rentmin_test

import (
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/solve"
)

// TestILPCounterGolden pins the "full" rows of the counter matrix in
// docs/ablation.md: one default exact solve of each bench instance, with
// the benches' targets and node limits. The search is deterministic, so
// the cost and every counter must match exactly; BENCH_baseline.json
// gates nodes and pivots only within a relative bound. A change that
// moves any of these numbers changes the default search and has to
// update this table and the matrix together.
func TestILPCounterGolden(t *testing.T) {
	type counters struct {
		cost                          int64
		nodes, pivots, lpSolves, cuts int
	}
	for _, c := range []struct {
		name      string
		m         func(testing.TB) *core.CostModel
		target    int
		nodeLimit int
		want      counters
	}{
		{"fig3", fig3Instance, 100, 0, counters{804, 18, 211, 61, 30}},
		{"fig8", fig8Instance, 120, 150, counters{60824, 77, 1426, 265, 40}},
		{"large", largeSparseInstance, 60, 40, counters{420, 30, 1671, 101, 27}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := solve.ILP(c.m(t), c.target, &solve.ILPOptions{NodeLimit: c.nodeLimit})
			if err != nil {
				t.Fatalf("ILP: %v", err)
			}
			if !res.Proven {
				t.Errorf("not proven (status %v)", res.Status)
			}
			got := counters{res.Alloc.Cost, res.Nodes, res.LPIterations, res.LPSolves, res.Cuts}
			if got != c.want {
				t.Errorf("{cost nodes pivots LPsolves cuts} = %+v, want %+v", got, c.want)
			}
		})
	}
}
