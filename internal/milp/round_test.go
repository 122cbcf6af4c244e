package milp

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rentmin/internal/lp"
	"rentmin/internal/obs"
)

// coverProblem is a small integer covering instance that needs several
// branch-and-bound rounds to prove optimality.
func coverProblem() *Problem {
	return &Problem{
		LP: lp.Problem{
			Objective: []float64{3, 5, 4, 7},
			Constraints: []lp.Constraint{
				dense([]float64{1, 2, 1, 3}, lp.GE, 7),
				dense([]float64{2, 1, 3, 1}, lp.GE, 5),
				dense([]float64{1, 1, 1, 1}, lp.GE, 4),
			},
		},
		Integer: []bool{true, true, true, true},
	}
}

// traced solves p with an obs.Trace in the context and returns the
// result with the trajectory the trace recorded.
func traced(t *testing.T, p *Problem, opts *Options) (Result, []obs.IncumbentPoint, []obs.RoundPoint) {
	t.Helper()
	tr := obs.NewTrace(time.Now())
	res, err := SolveContext(obs.WithTrace(context.Background(), tr), p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	incs, rounds, _ := tr.Trajectory()
	return res, incs, rounds
}

// TestSearchTrajectory pins the trace's round contract: one point per
// expanded node with a consistent, monotone snapshot, and the final
// snapshot agrees with the Result.
func TestSearchTrajectory(t *testing.T) {
	res, incs, rounds := traced(t, coverProblem(), nil)
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if len(rounds) == 0 {
		t.Fatalf("no round recorded")
	}
	for i, rp := range rounds {
		if rp.Round != i+1 {
			t.Fatalf("round index %d at position %d", rp.Round, i)
		}
		if rp.Incumbent != nil && math.IsInf(*rp.Incumbent, 1) {
			t.Fatalf("+Inf incumbent recorded as present")
		}
		if i > 0 {
			prev := rounds[i-1]
			if rp.Bound < prev.Bound-1e-9 {
				t.Fatalf("bound regressed %v -> %v", prev.Bound, rp.Bound)
			}
			if rp.Nodes < prev.Nodes {
				t.Fatalf("node count regressed")
			}
			if prev.Incumbent != nil && (rp.Incumbent == nil || *rp.Incumbent > *prev.Incumbent+1e-9) {
				t.Fatalf("incumbent worsened %v -> %v", prev.Incumbent, rp.Incumbent)
			}
		}
	}
	// Nodes left open after the last round were pruned at pop time, so
	// the final snapshot still accounts for every explored node.
	last := rounds[len(rounds)-1]
	if last.Nodes != res.Nodes {
		t.Fatalf("final Nodes %d != Result.Nodes %d", last.Nodes, res.Nodes)
	}
	if last.Incumbent == nil || math.Abs(*last.Incumbent-res.Objective) > 1e-9 {
		t.Fatalf("final incumbent %v != objective %v", last.Incumbent, res.Objective)
	}
	if len(incs) == 0 || math.Abs(incs[len(incs)-1].Cost-res.Objective) > 1e-9 {
		t.Fatalf("last incumbent point %v != objective %v", incs, res.Objective)
	}
}

// TestSearchTrajectoryDeterministic: the incumbent and round
// trajectories are identical run to run.
func TestSearchTrajectoryDeterministic(t *testing.T) {
	capture := func() ([]obs.IncumbentPoint, []obs.RoundPoint) {
		_, incs, rounds := traced(t, coverProblem(), nil)
		// The wall clock is the only nondeterministic field.
		for i := range incs {
			incs[i].AtMs = 0
		}
		for i := range rounds {
			rounds[i].AtMs = 0
		}
		return incs, rounds
	}
	incA, a := capture()
	incB, b := capture()
	if len(a) != len(b) {
		t.Fatalf("round counts differ: %d vs %d", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trajectories differ: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(incA, incB) {
		t.Fatalf("incumbent trajectories differ: %+v vs %+v", incA, incB)
	}
}
