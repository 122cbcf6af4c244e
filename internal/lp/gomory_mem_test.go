package lp_test

import (
	"runtime"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/lp"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// largeSparseLP is the root relaxation of the large sparse reference
// instance (the one BenchmarkILPPivotKernel/large solves): 120 recipes of
// 1-3 tasks over 200 machine types, a ~99%-zero constraint matrix.
func largeSparseLP(t *testing.T) *lp.Problem {
	t.Helper()
	p, err := graphgen.Generate(graphgen.Config{
		NumGraphs: 120, MinTasks: 1, MaxTasks: 3,
		MutatePercent: 1.0, NumTypes: 200,
		CostMin: 1, CostMax: 100,
		ThroughputMin: 2, ThroughputMax: 12,
	}, rng.New(0x5BA2).Sub('c', 1))
	if err != nil {
		t.Fatal(err)
	}
	return &solve.BuildMILP(core.NewCostModel(p), 60).LP
}

// TestSolveGomoryMemoryBounded pins the cut loop's memory: it allocates
// the generated cut rows and little more, so its bytes stay within a
// small multiple of the final cut-augmented problem's nonzeros — with
// room for building a fresh workspace, since the pool may drop one (the
// race detector makes sync.Pool discard items at random). A loop that
// reserved room for its worst-case cut count up front (4·(m+n) rows)
// would allocate two orders of magnitude more.
func TestSolveGomoryMemoryBounded(t *testing.T) {
	p := largeSparseLP(t)
	const rounds = 4 // the milp root default
	if _, err := lp.SolveGomory(p, nil, rounds); err != nil {
		t.Fatal(err) // warms the workspace pool
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := lp.SolveGomory(p, nil, rounds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cuts) == 0 || res.Rounds < 2 {
		t.Fatalf("%d cuts over %d rounds: the instance no longer exercises the cut loop", len(res.Cuts), res.Rounds)
	}
	nnz := 0
	for _, c := range append(p.Constraints[:len(p.Constraints):len(p.Constraints)], res.Cuts...) {
		for _, v := range c.Val {
			if v != 0 {
				nnz++
			}
		}
	}
	bytes := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d cuts, %d rounds, %d nonzeros: %d bytes allocated", len(res.Cuts), res.Rounds, nnz, bytes)
	if limit := 256 * nnz; bytes > limit {
		t.Errorf("SolveGomory allocated %d bytes, want <= %d (256 B per final nonzero)", bytes, limit)
	}
}
