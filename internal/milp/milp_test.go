package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rentmin/internal/lp"
)

// workerCounts is the concurrency grid: how many solves of one problem
// run at once, as a server's solve pool runs them. One, a small pool,
// and more solves than cores.
var workerCounts = []int{1, 2, 8}

// solveConcurrently runs w solves of p at once and returns their results
// in start order.
func solveConcurrently(t *testing.T, p *Problem, opts *Options, w int) []Result {
	t.Helper()
	out := make([]Result, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g], errs[g] = Solve(p, opts)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("solve %d of %d: %v", g, w, err)
		}
	}
	return out
}

// sameSearch reports whether two solves ran the same search: the same
// objective bits, incumbent point and work counters.
func sameSearch(a, b Result) bool {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		a.Status != b.Status || a.SearchStats != b.SearchStats || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// hardCoverMILP builds an integer covering problem whose branch-and-bound
// tree is deep enough to keep a frontier of several nodes alive (no cuts,
// no strong branching, fractional optimum far from integral points).
func hardCoverMILP(n int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	p := &Problem{
		LP:      lp.Problem{Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	rows := 3
	cons := make([][]float64, rows)
	for i := range cons {
		cons[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = float64(3 + r.Intn(17))
		p.Integer[j] = true
		for i := range cons {
			cons[i][j] = float64(1 + r.Intn(6))
		}
	}
	for i, row := range cons {
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{
			Coeffs: row, Rel: lp.GE, RHS: float64(50+13*i) + 0.5,
		})
	}
	return p
}

// TestParallelWorkersAgreeOnOptimum is the determinism contract: a solve
// is a pure function of its problem and options, so 1, 2 and 8 solves of
// the same MILP running at once all repeat a sequential reference
// exactly — objective bits, incumbent point and every search counter.
// Run with -race to make it a cross-solve isolation test as well.
func TestParallelWorkersAgreeOnOptimum(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		p := hardCoverMILP(9, seed)
		ref := solveOK(t, p, nil)
		if ref.Status != Optimal {
			t.Fatalf("seed %d: status %v", seed, ref.Status)
		}
		for _, w := range workerCounts {
			for g, res := range solveConcurrently(t, p, nil, w) {
				if !sameSearch(res, ref) {
					t.Errorf("seed %d: solve %d of %d diverged: obj %g/%g nodes %d/%d pivots %d/%d",
						seed, g, w, res.Objective, ref.Objective, res.Nodes, ref.Nodes,
						res.LPIterations, ref.LPIterations)
				}
			}
		}
	}
}

// TestParallelStress solves one instance many times concurrently, with
// every search feature on; under -race this exercises cross-solve
// isolation of the pooled LP workspaces and Starts.
func TestParallelStress(t *testing.T) {
	p := hardCoverMILP(8, 99)
	opts := &Options{StrongBranch: 4, IntegralObjective: true, Presolve: true}
	ref := solveOK(t, p, opts)
	if ref.Status != Optimal {
		t.Fatalf("reference status %v", ref.Status)
	}
	for g, res := range solveConcurrently(t, p, opts, 6) {
		if !sameSearch(res, ref) {
			t.Errorf("concurrent solve %d diverged: obj %g/%g nodes %d/%d",
				g, res.Objective, ref.Objective, res.Nodes, ref.Nodes)
		}
	}
}

// TestParallelQuickAgainstBruteForce cross-validates concurrent solves,
// with every feature combination that changes the search shape, against
// brute force on random instances.
func TestParallelQuickAgainstBruteForce(t *testing.T) {
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
		for _, w := range workerCounts {
			for _, opts := range []*Options{
				nil,
				{StrongBranch: 4},
				{IntegralObjective: true, Rounder: rounder, RootCutRounds: 4},
			} {
				for _, res := range solveConcurrently(t, p, opts, w) {
					if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelNodeLimit verifies the node limit is exact on a deep tree,
// for every solve of several running at once.
func TestParallelNodeLimit(t *testing.T) {
	p := hardCoverMILP(10, 3)
	for _, w := range workerCounts {
		for _, limit := range []int{1, 3, 16} {
			for g, res := range solveConcurrently(t, p, &Options{NodeLimit: limit}, w) {
				if res.Nodes > limit {
					t.Errorf("solve %d of %d: explored %d nodes despite NodeLimit %d",
						g, w, res.Nodes, limit)
				}
			}
		}
	}
}

// TestParallelTimeLimit verifies the time limit stops a deep search
// promptly and still reports the warm-started incumbent, for every solve
// of several running at once.
func TestParallelTimeLimit(t *testing.T) {
	p := hardCoverMILP(14, 5)
	inc := make([]float64, 14)
	// Over-cover every constraint with the first variable alone.
	for _, c := range p.LP.Constraints {
		if need := math.Ceil(c.RHS / c.Coeffs[0]); need > inc[0] {
			inc[0] = need
		}
	}
	for _, w := range workerCounts {
		start := time.Now()
		results := solveConcurrently(t, p, &Options{
			TimeLimit: 20 * time.Millisecond,
			Incumbent: inc,
		}, w)
		// Generous slack: one node's child LP solves may straddle the deadline.
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%d solves ran %v past a 20ms limit", w, elapsed)
		}
		for g, res := range results {
			if res.Status != Feasible && res.Status != Optimal {
				t.Errorf("solve %d of %d: status %v, want feasible-or-optimal with warm start", g, w, res.Status)
			}
			if res.Status == Feasible && res.Gap <= 0 {
				t.Errorf("solve %d of %d: feasible result must report a positive gap", g, w)
			}
		}
	}
}

func solveOK(t *testing.T, p *Problem, opts *Options) Result {
	t.Helper()
	res, err := Solve(p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func wantOptimal(t *testing.T, res Result, obj float64) {
	t.Helper()
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal (res=%+v)", res.Status, res)
	}
	if math.Abs(res.Objective-obj) > 1e-6 {
		t.Errorf("objective = %g, want %g (x=%v)", res.Objective, obj, res.X)
	}
	if math.Abs(res.Gap) > 1e-9 {
		t.Errorf("gap = %g, want 0", res.Gap)
	}
}

// Integer covering: min x1+x2 s.t. x1+2x2 >= 3. LP optimum 1.5, integer
// optimum 2 (either (1,1) or (3,0) is cost 3; (1,1)=2; (0,2)=2).
func TestIntegerCovering(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2}, Rel: lp.GE, RHS: 3},
			},
		},
		Integer: []bool{true, true},
	}
	wantOptimal(t, solveOK(t, p, nil), 2)
}

// Bounded knapsack as MILP: max 10a+13b s.t. 3a+4b <= 7, a,b in Z>=0.
// Optimum a=2? 3*2=6 <=7 value 20; a=1,b=1: 7 <=7 value 23. So 23.
func TestKnapsack(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{-10, -13},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{3, 4}, Rel: lp.LE, RHS: 7},
			},
		},
		Integer: []bool{true, true},
	}
	res := solveOK(t, p, nil)
	wantOptimal(t, res, -23)
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("x = %v, want (1,1)", res.X)
	}
}

// Mixed problem: one continuous, one integer variable.
func TestMixedIntegerContinuous(t *testing.T) {
	// min 5y + x  s.t. x + y >= 2.5, y integer, x continuous.
	// y=0 -> x=2.5 cost 2.5; y=1 -> x=1.5 cost 6.5. Optimum 2.5.
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 5},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Rel: lp.GE, RHS: 2.5},
			},
		},
		Integer: []bool{false, true},
	}
	res := solveOK(t, p, nil)
	wantOptimal(t, res, 2.5)
}

func TestInfeasibleMILP(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Rel: lp.GE, RHS: 5},
				{Coeffs: []float64{1}, Rel: lp.LE, RHS: 2},
			},
		},
		Integer: []bool{true},
	}
	if res := solveOK(t, p, nil); res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// Integer infeasibility that the LP relaxation cannot see:
// 2x = 1 with x integer. LP gives x=0.5; branching must prove infeasible.
func TestIntegerInfeasibleLPRelaxFeasible(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2}, Rel: lp.EQ, RHS: 1},
			},
		},
		Integer: []bool{true},
	}
	if res := solveOK(t, p, nil); res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{Objective: []float64{-1}},
		Integer: []bool{true},
	}
	if res := solveOK(t, p, nil); res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{Objective: []float64{1, 2}},
		Integer: []bool{true}, // wrong length
	}
	if _, err := Solve(p, nil); err == nil {
		t.Error("accepted mismatched integrality flags")
	}
}

func TestWarmStartAcceptedAndRejected(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2}, Rel: lp.GE, RHS: 3},
			},
		},
		Integer: []bool{true, true},
	}
	// Valid warm start (3,0) cost 3; solver must still find optimum 2.
	res := solveOK(t, p, &Options{Incumbent: []float64{3, 0}})
	wantOptimal(t, res, 2)

	// Infeasible warm start must be rejected with an error.
	if _, err := Solve(p, &Options{Incumbent: []float64{0, 0}}); err == nil {
		t.Error("accepted infeasible warm start")
	}
	// Fractional warm start must be rejected.
	if _, err := Solve(p, &Options{Incumbent: []float64{1.5, 1}}); err == nil {
		t.Error("accepted fractional warm start")
	}
}

func TestTimeLimitReturnsBestFound(t *testing.T) {
	// A problem big enough to take at least a few nodes.
	n := 14
	obj := make([]float64, n)
	row := make([]float64, n)
	for i := range obj {
		obj[i] = float64(3 + (i*7)%11)
		row[i] = float64(2 + (i*5)%7)
	}
	p := &Problem{
		LP: lp.Problem{
			Objective: obj,
			Constraints: []lp.Constraint{
				{Coeffs: row, Rel: lp.GE, RHS: 1000.5},
			},
		},
		Integer: make([]bool, n),
	}
	for i := range p.Integer {
		p.Integer[i] = true
	}
	res := solveOK(t, p, &Options{TimeLimit: time.Nanosecond, Rounder: nil})
	if res.Status != NoSolution && res.Status != Feasible && res.Status != Optimal {
		t.Errorf("status = %v under tiny time limit", res.Status)
	}
	// With a warm start the limit must still report Feasible, not lose it.
	inc := make([]float64, n)
	inc[0] = math.Ceil(1000.5 / row[0])
	res = solveOK(t, p, &Options{TimeLimit: time.Nanosecond, Incumbent: inc})
	if res.Status != Feasible && res.Status != Optimal {
		t.Errorf("status = %v, want feasible with warm start", res.Status)
	}
	if res.Status == Feasible && res.Gap <= 0 {
		t.Errorf("feasible result must report a positive gap, got %g", res.Gap)
	}
}

func TestNodeLimit(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2, 3, 5}, Rel: lp.GE, RHS: 17.5},
			},
		},
		Integer: []bool{true, true, true},
	}
	res := solveOK(t, p, &Options{NodeLimit: 1})
	if res.Nodes > 1 {
		t.Errorf("explored %d nodes despite NodeLimit 1", res.Nodes)
	}
}

func TestRounderProvidesIncumbent(t *testing.T) {
	// Covering problem where naive ceil-rounding of the LP point is
	// feasible, so the rounder should give an incumbent at the root.
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{7, 5},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2, 1}, Rel: lp.GE, RHS: 9},
				{Coeffs: []float64{1, 3}, Rel: lp.GE, RHS: 8},
			},
		},
		Integer: []bool{true, true},
	}
	rounded := 0
	rounder := func(x []float64) ([]float64, bool) {
		rounded++
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Ceil(v - 1e-9)
		}
		return y, true
	}
	res := solveOK(t, p, &Options{Rounder: rounder})
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if rounded == 0 {
		t.Error("rounder was never invoked")
	}
	// Verify against brute force.
	if want := bruteForceCover(p); math.Abs(res.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, brute force says %g", res.Objective, want)
	}
}

func TestIntegralObjectivePruningKeepsOptimum(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{13, 7, 9},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{3, 1, 2}, Rel: lp.GE, RHS: 11},
				{Coeffs: []float64{1, 2, 1}, Rel: lp.GE, RHS: 7},
			},
		},
		Integer: []bool{true, true, true},
	}
	plain := solveOK(t, p, nil)
	pruned := solveOK(t, p, &Options{IntegralObjective: true})
	if plain.Status != Optimal || pruned.Status != Optimal {
		t.Fatalf("statuses: %v / %v", plain.Status, pruned.Status)
	}
	if math.Abs(plain.Objective-pruned.Objective) > 1e-9 {
		t.Errorf("integral pruning changed optimum: %g vs %g", pruned.Objective, plain.Objective)
	}
	if pruned.Nodes > plain.Nodes {
		t.Logf("note: pruning used more nodes (%d > %d)", pruned.Nodes, plain.Nodes)
	}
	if want := bruteForceCover(p); math.Abs(plain.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, brute force says %g", plain.Objective, want)
	}
}

// bruteForceCover solves min c·x, Ax>=b, x in {0..K}^n by enumeration for
// small covering problems (all-GE constraints, non-negative data).
func bruteForceCover(p *Problem) float64 {
	n := p.LP.NumVars()
	// A bound on any single variable: cover every row alone.
	k := 0
	for _, c := range p.LP.Constraints {
		for j := 0; j < n; j++ {
			if c.Coeffs[j] > 0 {
				need := int(math.Ceil(c.RHS / c.Coeffs[j]))
				if need > k {
					k = need
				}
			}
		}
	}
	best := math.Inf(1)
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, c := range p.LP.Constraints {
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += c.Coeffs[j] * x[j]
				}
				if dot < c.RHS-1e-9 {
					return
				}
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += p.LP.Objective[j] * x[j]
			}
			if obj < best {
				best = obj
			}
			return
		}
		for v := 0; v <= k; v++ {
			x[i] = float64(v)
			rec(i + 1)
		}
		x[i] = 0
	}
	rec(0)
	return best
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", NoSolution: "no-solution",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}
