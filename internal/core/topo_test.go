package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/rng"
)

// referenceTopoOrder is the straightforward Kahn's algorithm over a
// [][]int adjacency list, kept as the oracle for Graph.TopoOrder's
// packed single-buffer implementation.
func referenceTopoOrder(g core.Graph) ([]int, error) {
	deg := g.InDegrees()
	succ := g.Successors()
	queue := make([]int, 0, len(g.Tasks))
	for id, d := range deg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("cycle detected (%d of %d tasks ordered)", len(order), len(g.Tasks))
	}
	return order, nil
}

// randomGraph draws n tasks and a random edge list with duplicate edges;
// with cyclic set, some edges also point backwards or form self-loops.
func randomGraph(r *rand.Rand, cyclic bool) core.Graph {
	n := 1 + r.Intn(24)
	g := core.Graph{Tasks: make([]core.Task, n)}
	for i := range g.Tasks {
		g.Tasks[i] = core.Task{ID: i}
	}
	for k := r.Intn(3 * n); k > 0; k-- {
		a, b := r.Intn(n), r.Intn(n)
		if a == b && !cyclic {
			continue
		}
		if a > b && !cyclic {
			a, b = b, a
		}
		g.Edges = append(g.Edges, core.Edge{From: a, To: b})
		if r.Intn(5) == 0 {
			g.Edges = append(g.Edges, core.Edge{From: a, To: b})
		}
	}
	// Shuffle so edge order is not sorted by endpoint.
	r.Shuffle(len(g.Edges), func(i, j int) { g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i] })
	return g
}

func checkSameTopoOrder(t *testing.T, what string, g core.Graph) {
	t.Helper()
	got, gotErr := g.TopoOrder()
	want, wantErr := referenceTopoOrder(g)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: order %v, reference %v", what, got, want)
	}
}

// TestTopoOrderMatchesReference pins the packed implementation to the
// reference order and error over generated recipes, random DAGs with
// duplicate edges, and graphs with cycles.
func TestTopoOrderMatchesReference(t *testing.T) {
	for _, cfg := range []graphgen.Config{
		{NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5, NumTypes: 5, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100},
		{NumGraphs: 5, MinTasks: 10, MaxTasks: 40, MutatePercent: 0.3, NumTypes: 8, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100, ExtraEdgeProb: 0.2},
	} {
		for seed := uint64(1); seed <= 20; seed++ {
			p, err := graphgen.Generate(cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for j, g := range p.App.Graphs {
				checkSameTopoOrder(t, fmt.Sprintf("graphgen seed %d graph %d", seed, j), g)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	cycles := 0
	var graphs [2][]core.Graph // acyclic, cyclic
	for i := 0; i < 2000; i++ {
		cyclic := i%2 == 1
		g := randomGraph(r, cyclic)
		checkSameTopoOrder(t, fmt.Sprintf("random graph %d (%+v)", i, g.Edges), g)
		if _, err := g.TopoOrder(); err != nil {
			cycles++
		}
		graphs[i%2] = append(graphs[i%2], g)
	}
	if cycles == 0 {
		t.Fatal("no random graph had a cycle; the error path went untested")
	}
	// Problem.Validate checks every graph in one shared buffer; its
	// verdict must match validating the graphs one by one. Each problem
	// has three acyclic graphs, then every other time a generated
	// cyclic one.
	platform := core.Platform{Machines: []core.MachineType{{Throughput: 1}}}
	for k := 0; 3*k+3 <= len(graphs[0]); k++ {
		gs := append([]core.Graph(nil), graphs[0][3*k:3*k+3]...)
		if k%2 == 1 {
			gs = append(gs, graphs[1][k])
		}
		p := core.Problem{App: core.Application{Graphs: gs}, Platform: platform}
		var want error
		for j, g := range p.App.Graphs {
			if err := g.Validate(1); err != nil {
				want = fmt.Errorf("graph %d: %w", j, err)
				break
			}
		}
		if got := p.Validate(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("problem %d: Validate %v, one by one %v", k, got, want)
		}
	}
}

// TestTopoOrderOneAllocation pins TopoOrder to a single allocation.
func TestTopoOrderOneAllocation(t *testing.T) {
	p, err := graphgen.Generate(graphgen.Config{
		NumGraphs: 1, MinTasks: 30, MaxTasks: 30, NumTypes: 3,
		CostMin: 1, CostMax: 10, ThroughputMin: 1, ThroughputMax: 10, ExtraEdgeProb: 0.1,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := p.App.Graphs[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.TopoOrder(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("TopoOrder: %v allocations per call, want 1", allocs)
	}
}

// TestValidateOneAllocation pins Problem.Validate to a single allocation
// for a multi-graph problem: every graph's acyclicity check shares one
// buffer.
func TestValidateOneAllocation(t *testing.T) {
	p, err := graphgen.Generate(graphgen.Config{
		NumGraphs: 20, MinTasks: 5, MaxTasks: 30, MutatePercent: 0.5, NumTypes: 5,
		CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100, ExtraEdgeProb: 0.1,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Validate of %d graphs: %v allocations per call, want 1", p.NumGraphs(), allocs)
	}
}
