package solve

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rentmin/internal/core"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
)

// tableIIICosts is the ILP column of Table III: the optimal cost for every
// target throughput of the illustrating example.
var tableIIICosts = map[int]int64{
	10: 28, 20: 38, 30: 58, 40: 69, 50: 86, 60: 107, 70: 124, 80: 134,
	90: 155, 100: 172, 110: 192, 120: 199, 130: 220, 140: 237, 150: 257,
	160: 268, 170: 285, 180: 306, 190: 323, 200: 333,
}

func TestILPTableIIIGolden(t *testing.T) {
	m := exampleModel(t)
	for target := 10; target <= 200; target += 10 {
		res, err := ILP(m, target, nil)
		if err != nil {
			t.Fatalf("ILP(%d): %v", target, err)
		}
		if !res.Proven {
			t.Fatalf("ILP(%d) not proven optimal: %+v", target, res)
		}
		if res.CutRounds > rootCutRounds {
			t.Errorf("ILP(%d): %d cut rounds, cap %d", target, res.CutRounds, rootCutRounds)
		}
		if want := tableIIICosts[target]; res.Alloc.Cost != want {
			t.Errorf("ILP(%d) cost = %d, want %d (alloc %v)", target, res.Alloc.Cost, want, res.Alloc.GraphThroughput)
		}
		if err := m.CheckFeasible(res.Alloc, target); err != nil {
			t.Errorf("ILP(%d): %v", target, err)
		}
	}
}

// TestILPRho70Allocation reproduces the fully worked example of
// Section VII: ρ=70 splits as (10,30,30) renting 3×P1, 2×P2, 1×P3, 1×P4.
// Alternative optima would have the same cost, so we assert cost and
// machine counts rather than the exact split.
func TestILPRho70Allocation(t *testing.T) {
	m := exampleModel(t)
	res, err := ILP(m, 70, nil)
	if err != nil {
		t.Fatalf("ILP: %v", err)
	}
	if res.Alloc.Cost != 124 {
		t.Fatalf("cost = %d, want 124", res.Alloc.Cost)
	}
}

func TestILPMatchesBruteForceOnSharedTypes(t *testing.T) {
	// A small shared-type instance where splitting beats any single graph.
	m := exampleModel(t)
	for _, target := range []int{1, 7, 15, 23, 42, 55} {
		res, err := ILP(m, target, nil)
		if err != nil {
			t.Fatalf("ILP(%d): %v", target, err)
		}
		want := BruteForce(m, target)
		if res.Alloc.Cost != want.Cost {
			t.Errorf("target %d: ILP %d, brute force %d", target, res.Alloc.Cost, want.Cost)
		}
	}
}

func TestILPMatchesNoSharedDP(t *testing.T) {
	m := core.NewCostModel(noSharedProblem())
	for target := 5; target <= 80; target += 15 {
		res, err := ILP(m, target, nil)
		if err != nil {
			t.Fatalf("ILP(%d): %v", target, err)
		}
		dp, err := NoSharedDP(m, target)
		if err != nil {
			t.Fatalf("NoSharedDP(%d): %v", target, err)
		}
		if res.Alloc.Cost != dp.Cost {
			t.Errorf("target %d: ILP %d, DP %d", target, res.Alloc.Cost, dp.Cost)
		}
	}
}

func TestILPMatchesBlackBoxDP(t *testing.T) {
	m := core.NewCostModel(blackBoxProblem())
	for target := 1; target <= 50; target += 7 {
		res, err := ILP(m, target, nil)
		if err != nil {
			t.Fatalf("ILP(%d): %v", target, err)
		}
		dp, err := BlackBoxDP(m, target)
		if err != nil {
			t.Fatalf("BlackBoxDP(%d): %v", target, err)
		}
		if res.Alloc.Cost != dp.Cost {
			t.Errorf("target %d: ILP %d, DP %d", target, res.Alloc.Cost, dp.Cost)
		}
	}
}

func TestILPZeroTarget(t *testing.T) {
	m := exampleModel(t)
	res, err := ILP(m, 0, nil)
	if err != nil {
		t.Fatalf("ILP(0): %v", err)
	}
	if res.Alloc.Cost != 0 || !res.Proven {
		t.Errorf("ILP(0) = %+v, want zero-cost proven", res)
	}
}

func TestILPAblationVariantsAgree(t *testing.T) {
	m := exampleModel(t)
	for _, target := range []int{30, 70, 110} {
		base, err := ILP(m, target, nil)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		variants := []*ILPOptions{
			{DisableCuts: true},
			{DisablePresolve: true},
			{DisableLPWarmStart: true},
			{WarmStart: []int{0, 0, target}},
		}
		for i, opts := range variants {
			res, err := ILP(m, target, opts)
			if err != nil {
				t.Fatalf("variant %d: %v", i, err)
			}
			if !res.Proven || res.Alloc.Cost != base.Alloc.Cost {
				t.Errorf("variant %d target %d: cost %d proven=%v, want %d proven",
					i, target, res.Alloc.Cost, res.Proven, base.Alloc.Cost)
			}
		}
	}
}

func TestILPWarmStartLengthChecked(t *testing.T) {
	m := exampleModel(t)
	if _, err := ILP(m, 50, &ILPOptions{WarmStart: []int{1, 2}}); err == nil {
		t.Error("accepted short warm start")
	}
}

func TestILPTimeLimitKeepsWarmStart(t *testing.T) {
	m := exampleModel(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := ILPContext(ctx, m, 150, nil)
	if err != nil {
		t.Fatalf("ILPContext: %v", err)
	}
	// With a warm start, even an instantly expiring deadline must report
	// a feasible allocation (the H1 seed).
	if res.Status != milp.Feasible && res.Status != milp.Optimal {
		t.Fatalf("status = %v, want feasible or optimal", res.Status)
	}
	if err := m.CheckFeasible(res.Alloc, 150); err != nil {
		t.Errorf("allocation under time limit infeasible: %v", err)
	}
	if res.Status == milp.Feasible && res.Bound > res.Objective {
		t.Errorf("bound %g above the objective %g", res.Bound, res.Objective)
	}
}

func TestBuildMILPShape(t *testing.T) {
	m := exampleModel(t)
	p := BuildMILP(m, 70)
	if got, want := p.LP.NumVars(), m.J+m.Q; got != want {
		t.Errorf("vars = %d, want %d", got, want)
	}
	if got, want := len(p.LP.Constraints), 1+m.Q; got != want {
		t.Errorf("constraints = %d, want %d", got, want)
	}
	for _, isInt := range p.Integer {
		if !isInt {
			t.Fatal("all variables must be integer")
		}
	}
}

func TestRoundingRepairProducesFeasiblePoints(t *testing.T) {
	m := exampleModel(t)
	target := 73
	rounder := RoundingRepair(m, target)
	// A deliberately fractional, under-target point.
	x := []float64{3.7, 10.2, 0.9, 0.1, 0.5, 0.2, 0.3}
	y, ok := rounder(x)
	if !ok {
		t.Fatal("rounder refused")
	}
	rho := make([]int, m.J)
	sum := 0
	for j := range rho {
		rho[j] = int(y[j])
		sum += rho[j]
	}
	if sum < target {
		t.Fatalf("rounded point covers %d < %d", sum, target)
	}
	a := m.NewAllocation(rho)
	for q := 0; q < m.Q; q++ {
		if int(y[m.J+q]) != a.Machines[q] {
			t.Errorf("machine count %d = %g, want %d", q, y[m.J+q], a.Machines[q])
		}
	}
}

// roundingReference is the rounding repair computed from scratch for
// every point: a fresh throughput vector, PadToTarget and the exact
// machine ceilings of core.NewAllocation.
func roundingReference(m *core.CostModel, target int, x []float64) []float64 {
	rho := make([]int, m.J)
	for j := range rho {
		rho[j] = max(int(math.Floor(x[j]+1e-9)), 0)
	}
	padToTargetReference(m, rho, target)
	a := m.NewAllocation(rho)
	out := make([]float64, m.J+m.Q)
	for j, r := range rho {
		out[j] = float64(r)
	}
	for q, n := range a.Machines {
		out[m.J+q] = float64(n)
	}
	return out
}

// TestRoundingRepairScratch: one rounder reuses its throughput and
// demand scratch, and the point it returns, on every call, yet each call
// matches the from-scratch repair bit for bit and leaves its input
// untouched. The point is one buffer for all calls, never the input.
func TestRoundingRepairScratch(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for mi := 0; mi < 20; mi++ {
		m := randomSharedProblem(r)
		target := 1 + r.Intn(60)
		rounder := RoundingRepair(m, target)
		var first *float64
		for call := 0; call < 8; call++ {
			x := make([]float64, m.J+m.Q)
			for j := range x {
				x[j] = r.Float64() * float64(target) / float64(m.J)
			}
			in := slices.Clone(x)
			y, ok := rounder(x)
			if !ok {
				t.Fatal("rounder refused")
			}
			if !slices.Equal(x, in) {
				t.Fatalf("model %d call %d: the rounder wrote its input", mi, call)
			}
			if &y[0] == &x[0] {
				t.Fatalf("model %d call %d: the point aliases the input", mi, call)
			}
			if call == 0 {
				first = &y[0]
			} else if &y[0] != first {
				t.Fatalf("model %d call %d: the rounder returned a new buffer", mi, call)
			}
			if ref := roundingReference(m, target, x); !slices.Equal(y, ref) {
				t.Fatalf("model %d call %d: rounder %v, from-scratch repair %v", mi, call, y, ref)
			}
		}
	}
}

// TestRoundingScratchPerSolve: every solve builds its own rounder, so
// concurrent exact solves over one shared CostModel repeat the
// sequential reference counter for counter (and, under -race, share no
// scratch). Table III at target 110 branches over several nodes.
func TestRoundingScratchPerSolve(t *testing.T) {
	m := exampleModel(t)
	const target = 110
	ref, err := ILP(m, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Nodes < 2 {
		t.Fatalf("the reference search explores %d nodes; it never calls the rounder twice", ref.Nodes)
	}
	const n = 4
	var res [n]ILPResult
	var errs [n]error
	done := make(chan int)
	for i := 0; i < n; i++ {
		go func() {
			res[i], errs[i] = ILP(m, target, nil)
			done <- i
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res[i].SearchStats != ref.SearchStats || res[i].Alloc.Cost != ref.Alloc.Cost {
			t.Errorf("solve %d: stats %+v cost %d, sequential reference %+v cost %d",
				i, res[i].SearchStats, res[i].Alloc.Cost, ref.SearchStats, ref.Alloc.Cost)
		}
	}
}

// TestBuildMILPSparseRows pins the sparse encoding of Section V-C: the
// coverage row lists every ρ_j with coefficient 1, and type q's row lists
// exactly the ρ_j of the recipes that use q (n_jq > 0) with -n_jq, then
// x_q with r_q — |{j : n_jq > 0}| + 1 entries in ascending column order.
func TestBuildMILPSparseRows(t *testing.T) {
	models := []*core.CostModel{exampleModel(t)}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		p, _ := smallGeneratedProblem(r)
		models = append(models, core.NewCostModel(p))
	}
	unused := 0 // (recipe, type) pairs with n_jq = 0, which no row lists
	for mi, m := range models {
		p := BuildMILP(m, 17)
		if err := p.Validate(); err != nil {
			t.Fatalf("model %d: %v", mi, err)
		}
		if len(p.LP.Constraints) != 1+m.Q {
			t.Fatalf("model %d: %d rows, want %d", mi, len(p.LP.Constraints), 1+m.Q)
		}
		total := p.LP.Constraints[0]
		if total.Rel != lp.GE || total.RHS != 17 || len(total.Idx) != m.J {
			t.Fatalf("model %d: coverage row %+v", mi, total)
		}
		for k, j := range total.Idx {
			if int(j) != k || total.Val[k] != 1 {
				t.Fatalf("model %d: coverage row entry %d is %g·x[%d]", mi, k, total.Val[k], j)
			}
		}
		for q := 0; q < m.Q; q++ {
			c := p.LP.Constraints[1+q]
			var wantIdx []int32
			var wantVal []float64
			for j := 0; j < m.J; j++ {
				if m.N[j][q] > 0 {
					wantIdx, wantVal = append(wantIdx, int32(j)), append(wantVal, -float64(m.N[j][q]))
				} else {
					unused++
				}
			}
			wantIdx, wantVal = append(wantIdx, int32(m.J+q)), append(wantVal, float64(m.R[q]))
			if c.Rel != lp.GE || c.RHS != 0 || !slices.Equal(c.Idx, wantIdx) || !slices.Equal(c.Val, wantVal) {
				t.Errorf("model %d type %d: row %v·x%v %v %g, want %v·x%v >= 0", mi, q, c.Val, c.Idx, c.Rel, c.RHS, wantVal, wantIdx)
			}
		}
	}
	if unused == 0 {
		t.Fatal("no recipe skips a type: the models do not exercise sparse rows")
	}
}

// padToTargetReference is the full-recompute PadToTarget: every unit of
// padding re-prices the whole allocation once per graph. It is the
// reference the incremental version must match bit for bit.
func padToTargetReference(m *core.CostModel, rho []int, target int) {
	sum := 0
	for _, r := range rho {
		sum += r
	}
	demand := make([]int64, m.Q)
	for ; sum < target; sum++ {
		base := m.CostInto(rho, demand)
		best, bestDelta := 0, int64(math.MaxInt64)
		for j := range rho {
			rho[j]++
			if d := m.CostInto(rho, demand) - base; d < bestDelta {
				best, bestDelta = j, d
			}
			rho[j]--
		}
		rho[best]++
	}
}

// wideSharedModel is a shared-type model of j recipes over q machine
// types, each recipe a chain of 3 to 8 tasks of random types. Costs and
// throughputs are small, so marginal costs tie often.
func wideSharedModel(r *rand.Rand, j, q int) *core.CostModel {
	p := &core.Problem{Platform: core.Platform{Machines: make([]core.MachineType, q)}}
	for i := range p.Platform.Machines {
		p.Platform.Machines[i] = core.MachineType{Throughput: 1 + r.Intn(6), Cost: 1 + r.Intn(4)}
	}
	for g := 0; g < j; g++ {
		types := make([]int, 3+r.Intn(6))
		for i := range types {
			types[i] = r.Intn(q)
		}
		p.App.Graphs = append(p.App.Graphs, core.NewChain("", types...))
	}
	return core.NewCostModel(p)
}

// TestPadToTargetMatchesFullRecompute: the incremental marginal-cost
// padding picks the same graph as the full recompute at every unit, ties
// included (small costs make them frequent), from random starting points
// below, at and above the target. Besides the small models, wide ones of
// 60 to 90 types are padded by 200 units and more, so marginal costs kept
// across many units, and graphs that share no type with the last pick,
// are exercised. The scratch is reused across pads, as the rounder reuses
// it.
func TestPadToTargetMatchesFullRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	models := []*core.CostModel{exampleModel(t)}
	for i := 0; i < 40; i++ {
		models = append(models, randomSharedProblem(r))
		p, _ := smallGeneratedProblem(r)
		models = append(models, core.NewCostModel(p))
	}
	small := len(models)
	for i := 0; i < 6; i++ {
		models = append(models, wideSharedModel(r, 12+r.Intn(20), 60+r.Intn(31)))
	}
	for mi, m := range models {
		scratch := make([]int64, m.Q+m.J)
		demand, delta := scratch[:m.Q], scratch[m.Q:]
		for trial := 0; trial < 10; trial++ {
			target := r.Intn(120)
			if mi >= small {
				target = 200 + r.Intn(200)
			}
			rho := make([]int, m.J)
			for j := range rho {
				if r.Intn(2) == 0 {
					rho[j] = r.Intn(target/m.J + 2)
				}
			}
			if mi >= small && trial%2 == 0 {
				clear(rho) // the whole target is padded
			}
			want := slices.Clone(rho)
			padToTargetReference(m, want, target)
			PadToTarget(m, rho, target, demand, delta)
			if !slices.Equal(rho, want) {
				t.Fatalf("model %d, target %d: PadToTarget = %v, full recompute = %v", mi, target, rho, want)
			}
			wantDemand := make([]int64, m.Q)
			m.Demands(rho, wantDemand)
			if !slices.Equal(demand, wantDemand) {
				t.Fatalf("model %d, target %d: PadToTarget left demand %v, want %v", mi, target, demand, wantDemand)
			}
		}
	}
}
