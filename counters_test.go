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

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// maxAllocsPerLPSolve is the measured allocation count of the fig3
// golden solve (95 objects) over its LP solves (61). A search draws all
// its per-search storage from one pooled scratch: child LPs solve into
// results from its free list, heap nodes and their bound buffers come
// from another, and the presolve state and the reduced problem are
// rebuilt in reused buffers, so only the root's one-shot result, the root
// cuts and what outgrows the pooled scratch cost objects; the rounding
// repair reuses its scratch and its returned point for the whole solve.
const maxAllocsPerLPSolve = 95.0 / 61

// TestILPAllocsPerLPSolve pins the allocations of one default exact
// solve of the fig3 golden instance, per LP it solves. A change that
// makes the search allocate more per node LP fails here even when the
// counters of TestILPCounterGolden do not move.
func TestILPAllocsPerLPSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	m := fig3Instance(t)
	var lpSolves int
	allocs := testing.AllocsPerRun(20, func() {
		res, err := solve.ILP(m, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		lpSolves = res.LPSolves
	})
	if perLP := allocs / float64(lpSolves); perLP > maxAllocsPerLPSolve {
		t.Errorf("the fig3 solve allocates %v times over %d LP solves: %.2f per LP solve, want at most %.2f",
			allocs, lpSolves, perLP, maxAllocsPerLPSolve)
	}
}
