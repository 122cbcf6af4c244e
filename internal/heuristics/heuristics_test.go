package heuristics

import (
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

func exampleModel(t *testing.T) *core.CostModel {
	t.Helper()
	p := core.IllustratingExample()
	if err := p.Validate(); err != nil {
		t.Fatalf("example invalid: %v", err)
	}
	return core.NewCostModel(p)
}

// tableIIIOptimal is the ILP column of Table III.
var tableIIIOptimal = map[int]int64{
	10: 28, 20: 38, 30: 58, 40: 69, 50: 86, 60: 107, 70: 124, 80: 134,
	90: 155, 100: 172, 110: 192, 120: 199, 130: 220, 140: 237, 150: 257,
	160: 268, 170: 285, 180: 306, 190: 323, 200: 333,
}

// tableIIIH1 is the H1 column of Table III.
var tableIIIH1 = map[int]int64{
	10: 28, 20: 38, 30: 58, 40: 69, 50: 104, 60: 114, 70: 138, 80: 138,
	90: 174, 100: 189, 110: 199, 120: 199, 130: 256, 140: 257, 150: 257,
	160: 276, 170: 315, 180: 315, 190: 340, 200: 340,
}

func TestH1TableIIIGolden(t *testing.T) {
	m := exampleModel(t)
	for target, want := range tableIIIH1 {
		a := H1(m, target)
		if a.Cost != want {
			t.Errorf("H1(%d) cost = %d, want %d", target, a.Cost, want)
		}
		if err := m.CheckFeasible(a, target); err != nil {
			t.Errorf("H1(%d): %v", target, err)
		}
		if got := a.TotalThroughput(); got != target {
			t.Errorf("H1(%d) total throughput = %d", target, got)
		}
	}
}

func TestH0FeasibleAndExact(t *testing.T) {
	m := exampleModel(t)
	src := rng.New(1)
	for target := 0; target <= 100; target += 17 {
		a := H0(m, target, src)
		if got := a.TotalThroughput(); got != target {
			t.Errorf("H0(%d) splits to %d", target, got)
		}
		if err := m.CheckFeasible(a, target); err != nil {
			t.Errorf("H0(%d): %v", target, err)
		}
	}
}

func TestH0CoversCompositions(t *testing.T) {
	m := exampleModel(t)
	src := rng.New(7)
	seen := map[[3]int]bool{}
	for i := 0; i < 400; i++ {
		a := H0(m, 4, src)
		seen[[3]int{a.GraphThroughput[0], a.GraphThroughput[1], a.GraphThroughput[2]}] = true
	}
	// 15 compositions of 4 into 3 parts; uniform sampling must find most.
	if len(seen) < 12 {
		t.Errorf("H0 visited only %d/15 compositions in 400 draws", len(seen))
	}
}

// TestStochasticHeuristicsDeterministicUnderSeed: every heuristic, those
// that ignore their source included, repeats its answer under one seed.
func TestStochasticHeuristicsDeterministicUnderSeed(t *testing.T) {
	m := exampleModel(t)
	opts := &Options{Iterations: 200, Delta: 10}
	for _, alg := range WithH0() {
		a := alg.Run(m, 110, opts, rng.New(99))
		b := alg.Run(m, 110, opts, rng.New(99))
		if a.Cost != b.Cost {
			t.Errorf("%s not deterministic under fixed seed: %d vs %d", alg.Name, a.Cost, b.Cost)
		}
	}
}

// Every heuristic must stay between the optimum and H1 (their common
// starting point), except H0 which is unconstrained above.
func TestHeuristicsBracketedByOptAndH1(t *testing.T) {
	m := exampleModel(t)
	opts := &Options{Iterations: 2000, Delta: 10}
	for target := 10; target <= 200; target += 10 {
		opt := tableIIIOptimal[target]
		h1 := tableIIIH1[target]
		for _, alg := range All() {
			a := alg.Run(m, target, opts, rng.New(uint64(target)))
			if err := m.CheckFeasible(a, target); err != nil {
				t.Errorf("%s(%d): %v", alg.Name, target, err)
			}
			if a.Cost < opt {
				t.Errorf("%s(%d) cost %d below proven optimum %d", alg.Name, target, a.Cost, opt)
			}
			if a.Cost > h1 {
				t.Errorf("%s(%d) cost %d above its H1 start %d", alg.Name, target, a.Cost, h1)
			}
		}
	}
}

// Table III shows H32 stuck in the H1 local minimum at ρ=50 (cost 104)
// while H32Jump escapes to the optimum 86. Reproduce both behaviours.
func TestH32StuckAtLocalMinRho50(t *testing.T) {
	m := exampleModel(t)
	a := H32(m, 50, &Options{Delta: 10})
	if a.Cost != 104 {
		t.Errorf("H32(50) cost = %d, want 104 (the paper's local minimum)", a.Cost)
	}
}

func TestH32JumpEscapesToOptimumRho50(t *testing.T) {
	m := exampleModel(t)
	opts := &Options{Delta: 10, Jumps: 40, JumpLength: 3}
	best := int64(1 << 60)
	for seed := uint64(0); seed < 10; seed++ {
		if a := H32Jump(m, 50, opts, rng.New(seed)); a.Cost < best {
			best = a.Cost
		}
	}
	if best != 86 {
		t.Errorf("H32Jump best over 10 seeds = %d, want the optimum 86", best)
	}
}

// H2 with enough iterations finds the paper's improved solutions at the
// targets where Table III reports H2 = optimal (e.g. 50, 70, 100).
func TestH2FindsNearOptimal(t *testing.T) {
	m := exampleModel(t)
	opts := &Options{Iterations: 5000, Delta: 10}
	for _, target := range []int{50, 70, 100} {
		best := int64(1 << 60)
		for seed := uint64(0); seed < 8; seed++ {
			if a := H2(m, target, opts, rng.New(seed)); a.Cost < best {
				best = a.Cost
			}
		}
		if want := tableIIIOptimal[target]; best != want {
			t.Errorf("H2(%d) best over seeds = %d, want %d", target, best, want)
		}
	}
}

func TestSingleGraphDegenerateCases(t *testing.T) {
	// J == 1: every heuristic must return the solo allocation.
	p := &core.Problem{
		App: core.Application{Graphs: []core.Graph{core.NewChain("only", 0, 1)}},
		Platform: core.Platform{Machines: []core.MachineType{
			{Throughput: 5, Cost: 3}, {Throughput: 4, Cost: 2},
		}},
	}
	m := core.NewCostModel(p)
	want := m.SingleGraphCost(0, 17)
	for _, alg := range WithH0() {
		a := alg.Run(m, 17, nil, rng.New(4))
		if a.Cost != want {
			t.Errorf("%s on single-graph app: cost %d, want %d", alg.Name, a.Cost, want)
		}
	}
}

func TestZeroTarget(t *testing.T) {
	m := exampleModel(t)
	for _, alg := range WithH0() {
		a := alg.Run(m, 0, nil, rng.New(4))
		if a.Cost != 0 {
			t.Errorf("%s(0) cost = %d, want 0", alg.Name, a.Cost)
		}
	}
}

// Heuristics on a random shared-type instance must never beat the ILP and
// never lose to H1.
func TestHeuristicsVsILPRandomInstance(t *testing.T) {
	p := &core.Problem{
		App: core.Application{Graphs: []core.Graph{
			core.NewChain("a", 0, 1, 2),
			core.NewChain("b", 0, 3, 2),
			core.NewChain("c", 3, 1),
			core.NewChain("d", 2, 2, 0),
		}},
		Platform: core.Platform{Machines: []core.MachineType{
			{Throughput: 7, Cost: 13},
			{Throughput: 11, Cost: 17},
			{Throughput: 5, Cost: 6},
			{Throughput: 13, Cost: 21},
		}},
	}
	m := core.NewCostModel(p)
	for _, target := range []int{10, 35, 60} {
		res, err := solve.ILP(m, target, nil)
		if err != nil || !res.Proven {
			t.Fatalf("ILP(%d): %v %+v", target, err, res)
		}
		h1 := H1(m, target)
		opts := &Options{Iterations: 3000, Delta: 1}
		for _, alg := range All() {
			a := alg.Run(m, target, opts, rng.New(uint64(target)))
			if a.Cost < res.Alloc.Cost {
				t.Errorf("%s(%d) cost %d beats proven optimum %d", alg.Name, target, a.Cost, res.Alloc.Cost)
			}
			if a.Cost > h1.Cost {
				t.Errorf("%s(%d) cost %d worse than H1 %d", alg.Name, target, a.Cost, h1.Cost)
			}
		}
	}
}
