package milp

import (
	"context"
	"math"
	"testing"
	"time"

	"rentmin/internal/obs"
)

// intObj rounds an objective value that is integral in exact arithmetic
// (hardCoverMILP has integer costs and integer variables), failing the
// test if the float is not within LP tolerance of an integer. Warm and
// cold pivot sequences differ, so their results agree only up to roundoff
// — exact comparisons must go through the integral value.
func intObj(t *testing.T, v float64) int64 {
	t.Helper()
	r := math.Round(v)
	if math.Abs(v-r) > 1e-6 {
		t.Fatalf("objective %v is not integral", v)
	}
	return int64(r)
}

// runTrace solves p and records the incumbent objective sequence.
func runTrace(t *testing.T, p *Problem, cold bool) (Result, []float64) {
	t.Helper()
	tr := obs.NewTrace(time.Now())
	res, err := SolveContext(obs.WithTrace(context.Background(), tr), p, &Options{DisableWarmLP: cold})
	if err != nil {
		t.Fatalf("Solve(cold=%v): %v", cold, err)
	}
	incs, _, _ := tr.Trajectory()
	seq := make([]float64, len(incs))
	for i, ip := range incs {
		seq[i] = ip.Cost
	}
	return res, seq
}

// TestWarmVsColdSameSearch pins the headline properties of the warm-start
// path: across generated instances, the warm-started and cold searches
// land on the same optimal objective, and each mode is exactly
// reproducible run to run — bit-identical objective and identical
// incumbent cost sequence.
//
// The two modes' incumbent *trajectories* are not compared against each
// other: with branching expressed as variable-bound patches, a child LP
// with alternate optima can legitimately settle on different vertices
// under the warm dual-simplex path and the cold two-phase path (a
// variable at its cap rests nonbasic at the upper bound on one path and
// basic on the other), steering the searches through different — equally
// optimal — trees.
func TestWarmVsColdSameSearch(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		p := hardCoverMILP(8, seed)
		warm, warmSeq := runTrace(t, p, false)
		cold, coldSeq := runTrace(t, p, true)
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("seed %d: status warm=%v cold=%v", seed, warm.Status, cold.Status)
		}
		if intObj(t, warm.Objective) != intObj(t, cold.Objective) {
			t.Errorf("seed %d: warm objective %v != cold %v", seed, warm.Objective, cold.Objective)
		}
		// Run-to-run reproducibility per mode: identical incumbent
		// sequences and bit-identical objectives.
		for _, mode := range []struct {
			cold bool
			res  Result
			seq  []float64
		}{{false, warm, warmSeq}, {true, cold, coldSeq}} {
			again, againSeq := runTrace(t, p, mode.cold)
			if math.Float64bits(again.Objective) != math.Float64bits(mode.res.Objective) {
				t.Errorf("seed %d cold=%v: objective not reproducible", seed, mode.cold)
			}
			if len(againSeq) != len(mode.seq) {
				t.Errorf("seed %d cold=%v: incumbent sequence not reproducible: %v vs %v",
					seed, mode.cold, mode.seq, againSeq)
				continue
			}
			for i := range againSeq {
				if math.Float64bits(againSeq[i]) != math.Float64bits(mode.seq[i]) {
					t.Errorf("seed %d cold=%v: incumbent sequence diverges at %d: %v vs %v",
						seed, mode.cold, i, mode.seq, againSeq)
					break
				}
			}
		}
		if warm.WarmLPSolves == 0 {
			t.Errorf("seed %d: warm search never used the warm path (%d cold solves)",
				seed, warm.LPSolves-warm.WarmLPSolves)
		}
		if cold.WarmLPSolves != 0 {
			t.Errorf("seed %d: DisableWarmLP leaked %d warm solves", seed, cold.WarmLPSolves)
		}
	}
}

// TestWarmVsColdAcrossWorkerCounts pins the acceptance matrix directly:
// warm and cold, with 1, 2 and 8 solves running at once, every solve
// reports the same optimal cost. Within a mode every solve repeats the
// sequential one exactly: concurrency never changes a search.
func TestWarmVsColdAcrossWorkerCounts(t *testing.T) {
	p := hardCoverMILP(10, 77)
	var refCost int64
	first := true
	for _, cold := range []bool{false, true} {
		ref, _ := runTrace(t, p, cold)
		if ref.Status != Optimal {
			t.Fatalf("cold=%v: status %v", cold, ref.Status)
		}
		cost := intObj(t, ref.Objective)
		if first {
			refCost, first = cost, false
		} else if cost != refCost {
			t.Errorf("cold=%v: cost %d != reference %d", cold, cost, refCost)
		}
		for _, w := range workerCounts {
			for g, res := range solveConcurrently(context.Background(), t, p, &Options{DisableWarmLP: cold}, w) {
				if !sameSearch(res, ref) {
					t.Errorf("workers=%d cold=%v: solve %d diverged from the sequential one", w, cold, g)
				}
			}
		}
	}
}

// TestWarmReducesLPIterations checks that the warm start actually pays:
// on an instance with a non-trivial tree, the warm search spends strictly
// fewer total simplex pivots than the cold search (the Fig. 8-scale
// benchmark in the repo root tracks the ratio itself).
func TestWarmReducesLPIterations(t *testing.T) {
	p := hardCoverMILP(10, 3)
	warm, _ := runTrace(t, p, false)
	cold, _ := runTrace(t, p, true)
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if warm.LPIterations == 0 || cold.LPIterations == 0 {
		t.Fatalf("iteration accounting broken: warm=%d cold=%d", warm.LPIterations, cold.LPIterations)
	}
	if warm.LPIterations >= cold.LPIterations {
		t.Errorf("warm start saved nothing: warm %d pivots >= cold %d (nodes warm=%d cold=%d)",
			warm.LPIterations, cold.LPIterations, warm.Nodes, cold.Nodes)
	}
	t.Logf("pivots: warm=%d cold=%d (%.2fx), warm/cold solves=%d/%d",
		warm.LPIterations, cold.LPIterations,
		float64(cold.LPIterations)/float64(warm.LPIterations),
		warm.WarmLPSolves, warm.LPSolves-warm.WarmLPSolves)
}

// TestWarmWithAllFeatures exercises warm starts together with cuts,
// reliability branching, rounding and an incumbent seed, cross-checking the
// optimum against the plain cold configuration.
func TestWarmWithAllFeatures(t *testing.T) {
	p := hardCoverMILP(8, 11)
	base, _ := runTrace(t, p, true)
	if base.Status != Optimal {
		t.Fatalf("baseline status %v", base.Status)
	}
	res := solveOK(t, p, nil)
	if res.Status != Optimal || math.Abs(res.Objective-base.Objective) > 1e-9 {
		t.Errorf("%v objective %v, want %v", res.Status, res.Objective, base.Objective)
	}
}
