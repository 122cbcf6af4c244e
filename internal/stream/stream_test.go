package stream

import (
	"math"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// singleChainProblem: one graph, one task of one type, r=10, c=1.
func singleChainProblem() *core.Problem {
	return &core.Problem{
		App: core.Application{Graphs: []core.Graph{core.NewChain("g", 0)}},
		Platform: core.Platform{Machines: []core.MachineType{
			{Throughput: 10, Cost: 1},
		}},
	}
}

func TestSaturatedSingleMachine(t *testing.T) {
	p := singleChainProblem()
	m := core.NewCostModel(p)
	alloc := m.NewAllocation([]int{10}) // 1 machine, exactly saturated
	met, err := Simulate(Config{Problem: p, Alloc: alloc, Duration: 50, Warmup: 10}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.ItemsInjected != met.ItemsCompleted || met.ItemsCompleted != met.ItemsReleased {
		t.Errorf("conservation violated: injected %d, completed %d, released %d",
			met.ItemsInjected, met.ItemsCompleted, met.ItemsReleased)
	}
	if math.Abs(met.Throughput-10) > 0.5 {
		t.Errorf("throughput = %g, want ~10", met.Throughput)
	}
	if met.Utilization[0] < 0.95 {
		t.Errorf("utilization = %g, want ~1", met.Utilization[0])
	}
	if !met.InOrder {
		t.Error("single chain released out of order")
	}
	// Deterministic D/D/1 at exactly rate=capacity: latency is one
	// service time.
	if math.Abs(met.MeanLatency-0.1) > 1e-6 {
		t.Errorf("mean latency = %g, want 0.1", met.MeanLatency)
	}
}

// The paper's worked allocation at ρ=70 must sustain ~70 items/t.u.
func TestIllustratingExampleSustainsTarget(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	res, err := solve.ILP(m, 70, nil)
	if err != nil || !res.Proven {
		t.Fatalf("ILP: %v %+v", err, res)
	}
	met, err := Simulate(Config{Problem: p, Alloc: res.Alloc, Duration: 60, Warmup: 20}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.Throughput < 0.93*70 {
		t.Errorf("throughput = %g, want >= %g", met.Throughput, 0.93*70.0)
	}
	if met.Throughput > 1.05*70 {
		t.Errorf("throughput = %g exceeds injection rate", met.Throughput)
	}
	if !met.InOrder {
		t.Error("outputs out of order")
	}
	if met.ItemsCompleted != met.ItemsInjected {
		t.Errorf("pipeline did not drain: %d of %d", met.ItemsCompleted, met.ItemsInjected)
	}
}

// Removing one machine from a loaded type must visibly break the target.
func TestUnderProvisionedThroughputDrops(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	res, err := solve.ILP(m, 70, nil)
	if err != nil {
		t.Fatal(err)
	}
	crippled := res.Alloc.Clone()
	// Type 1 (P2) serves graphs phi1 and phi3 with demand 40 = capacity.
	crippled.Machines[1]--
	crippled.Cost -= m.C[1]
	met, err := Simulate(Config{Problem: p, Alloc: crippled, Duration: 60, Warmup: 20}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.Throughput > 0.9*70 {
		t.Errorf("throughput = %g despite removing a saturated machine", met.Throughput)
	}
}

func TestReorderBufferWithHeterogeneousGraphs(t *testing.T) {
	// Two recipes with very different pipeline depths sharing the output:
	// a 1-task recipe and a 6-task chain.
	p := &core.Problem{
		App: core.Application{Graphs: []core.Graph{
			core.NewChain("fast", 0),
			core.NewChain("slow", 1, 1, 1, 1, 1, 1),
		}},
		Platform: core.Platform{Machines: []core.MachineType{
			{Throughput: 10, Cost: 1},
			{Throughput: 10, Cost: 1},
		}},
	}
	m := core.NewCostModel(p)
	alloc := m.NewAllocation([]int{5, 5})
	met, err := Simulate(Config{Problem: p, Alloc: alloc, Duration: 40, Warmup: 5}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !met.InOrder {
		t.Error("reorder buffer failed to restore order")
	}
	if met.ReorderMax < 1 {
		t.Error("heterogeneous latencies should exercise the reorder buffer")
	}
	if met.ReorderMean < 0 || float64(met.ReorderMax) < met.ReorderMean {
		t.Errorf("buffer stats inconsistent: max %d, mean %g", met.ReorderMax, met.ReorderMean)
	}
}

func TestArrivalJitterStillConserves(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	res, err := solve.ILP(m, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Simulate(Config{
		Problem: p, Alloc: res.Alloc, Duration: 40, Warmup: 10, ArrivalJitter: 0.4,
	}, rng.New(17))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.ItemsCompleted != met.ItemsInjected || !met.InOrder {
		t.Errorf("jittered run broke conservation or order: %+v", met)
	}
	if met.Throughput < 0.85*50 {
		t.Errorf("jittered throughput = %g, want >= %g", met.Throughput, 0.85*50.0)
	}
}

func TestSimulateErrors(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	good := m.NewAllocation([]int{10, 0, 0})
	cases := map[string]Config{
		"nil problem":    {Alloc: good, Duration: 10},
		"bad duration":   {Problem: p, Alloc: good, Duration: 0},
		"bad warmup":     {Problem: p, Alloc: good, Duration: 10, Warmup: 10},
		"bad jitter":     {Problem: p, Alloc: good, Duration: 10, ArrivalJitter: 1},
		"shape mismatch": {Problem: p, Alloc: core.Allocation{GraphThroughput: []int{1}, Machines: []int{1}}, Duration: 10},
	}
	for name, cfg := range cases {
		if _, err := Simulate(cfg, rng.New(1)); err == nil {
			t.Errorf("Simulate accepted %s", name)
		}
	}
	// Zero machines for a demanded type.
	broken := good.Clone()
	broken.Machines[1] = 0
	if _, err := Simulate(Config{Problem: p, Alloc: broken, Duration: 10}, nil); err == nil {
		t.Error("Simulate accepted allocation with a missing pool")
	}
	// Jitter without a source.
	if _, err := Simulate(Config{Problem: p, Alloc: good, Duration: 10, ArrivalJitter: 0.2}, nil); err == nil {
		t.Error("Simulate accepted jitter without a source")
	}
}

func TestZeroThroughputAllocation(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	alloc := m.NewAllocation([]int{0, 0, 0})
	met, err := Simulate(Config{Problem: p, Alloc: alloc, Duration: 10}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.ItemsInjected != 0 || met.Throughput != 0 {
		t.Errorf("zero allocation injected items: %+v", met)
	}
}

func TestDispatchProportions(t *testing.T) {
	// Weighted round robin must hit the ρ_j ratios over a long run.
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	alloc := m.NewAllocation([]int{10, 30, 30})
	met, err := Simulate(Config{Problem: p, Alloc: alloc, Duration: 30, Warmup: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.ItemsInjected == 0 {
		t.Fatal("nothing injected")
	}
	// With total 70 over 30 t.u. we expect ~2100 items; utilization of
	// type 0 (only used by graph 3 at 30 of capacity 30) should be high.
	if met.Utilization[0] < 0.9 {
		t.Errorf("type-0 utilization %g, want >= 0.9", met.Utilization[0])
	}
}

func TestLatencyAtLeastCriticalPath(t *testing.T) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	res, err := solve.ILP(m, 70, nil)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Simulate(Config{Problem: p, Alloc: res.Alloc, Duration: 30, Warmup: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The fastest possible item traverses the shallowest graph's critical
	// path; mean latency cannot be below the minimum critical path.
	minCP := math.Inf(1)
	for j, g := range p.App.Graphs {
		if res.Alloc.GraphThroughput[j] == 0 {
			continue
		}
		cp, err := g.CriticalPath(p.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if cp < minCP {
			minCP = cp
		}
	}
	if met.MeanLatency < minCP-1e-9 {
		t.Errorf("mean latency %g below minimum critical path %g", met.MeanLatency, minCP)
	}
}
