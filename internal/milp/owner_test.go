package milp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/lp"
	"rentmin/internal/rng"
)

// fig3MILP is the recipe MIP of package solve (BuildMILP) on the fig3
// bench instance (the paper's Fig. 3 generator setting, seed 0xF193),
// written out here because package solve imports this one: columns [ρ_0..ρ_{J-1}, x_0..x_{Q-1}], minimize
// Σ c_q·x_q subject to Σ ρ_j >= target and r_q·x_q − Σ_j n_jq·ρ_j >= 0.
func fig3MILP(t *testing.T, target int) *Problem {
	t.Helper()
	cfg := graphgen.Config{
		NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5,
		NumTypes: 5, CostMin: 1, CostMax: 100,
		ThroughputMin: 10, ThroughputMax: 100,
	}
	cp, err := graphgen.Generate(cfg, rng.New(0xF193).Sub('c', 2))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewCostModel(cp)
	nv := m.J + m.Q
	p := &Problem{LP: lp.Problem{Objective: make([]float64, nv)}, Integer: make([]bool, nv)}
	total := make([]float64, nv)
	for j := 0; j < m.J; j++ {
		total[j] = 1
	}
	p.LP.Constraints = append(p.LP.Constraints, dense(total, lp.GE, float64(target)))
	for q := 0; q < m.Q; q++ {
		p.LP.Objective[m.J+q] = float64(m.C[q])
		row := make([]float64, nv)
		for j := 0; j < m.J; j++ {
			row[j] = -float64(m.N[j][q])
		}
		row[m.J+q] = float64(m.R[q])
		p.LP.Constraints = append(p.LP.Constraints, dense(row, lp.GE, 0))
	}
	for j := range p.Integer {
		p.Integer[j] = true
	}
	return p
}

// TestNodesOwnTheirResults: a node owns its LP result and its bounds from
// the moment it enters the heap until its expansion is finished. Every
// child that enters the heap must differ from its parent's box in one
// column, in a buffer of its own; it is re-solved fresh, one-shot, over
// its box from its parent's basis, and when it is popped its box must
// still be the one it entered with and its X, Duals and basis that
// re-solve's, bit for bit, although the probes, infeasible and pruned
// children solved in between reuse the results, and the nodes expanded
// or pruned in between the nodes and bounds, that the search gave back.
// Several searches run at once, as a server runs them, so they share the
// scratch pool (run it under -race).
func TestNodesOwnTheirResults(t *testing.T) {
	p := fig3MILP(t, 100)
	// The search proves in 23 nodes; the limit only ends a broken one.
	opts := &Options{RootCutRounds: 4, Presolve: true, NodeLimit: 1000}

	// entry is what a child entered the heap with: its box and the fresh
	// re-solve of it.
	type entry struct {
		lo, hi []uint64
		sol    lp.Solution
	}
	var mu sync.Mutex
	wants := map[*node]entry{}
	// lpsAtPop is each search's LP count at its last pop, so the next pop
	// learns how many child LPs the expansion in between solved.
	lpsAtPop := map[*solver]int{}
	checked, multiProbe, mismatched := 0, 0, 0
	var firstMismatch string
	onEnqueue = func(s *solver, parent, kid *node) {
		if &kid.lo[0] == &parent.lo[0] || &kid.hi[0] == &parent.hi[0] {
			t.Error("a child's bounds share their parent's buffer")
			return
		}
		if d := boxDiff(parent, kid); d != 1 {
			t.Errorf("a child's box differs from its parent's in %d columns, want 1", d)
		}
		q := *s.base
		q.Lo, q.Hi = kid.lo, kid.hi
		sol, err := lp.SolveFrom(&q, parent.relax.Basis)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		wants[kid] = entry{bits(kid.lo), bits(kid.hi), sol}
		mu.Unlock()
	}
	onPop = func(s *solver, n *node) {
		mu.Lock()
		last, seen := lpsAtPop[s]
		if seen && s.stats.LPSolves-last >= 4 {
			multiProbe++
		}
		lpsAtPop[s] = s.stats.LPSolves
		want, ok := wants[n]
		delete(wants, n)
		// The first pop is the root, which never entered through
		// onEnqueue: an entry under its pointer is stale, left by a node
		// of an earlier search that was pruned or left on the heap.
		ok = ok && seen
		if ok {
			checked++
		}
		mu.Unlock()
		if !ok {
			return
		}
		got, what := n.relax, ""
		switch {
		case !slices.Equal(bits(n.lo), want.lo) || !slices.Equal(bits(n.hi), want.hi):
			what = "its box differs from the one it entered the heap with"
		case got.Status != lp.Optimal || want.sol.Status != lp.Optimal:
			what = fmt.Sprintf("status %v, fresh re-solve %v", got.Status, want.sol.Status)
		case !slices.Equal(bits(got.X), bits(want.sol.X)) || !slices.Equal(bits(got.Duals), bits(want.sol.Duals)) ||
			math.Float64bits(got.Objective) != math.Float64bits(want.sol.Objective):
			what = "X, Duals or objective differ from a fresh re-solve of its box"
		case !reflect.DeepEqual(*got.Basis, *want.sol.Basis):
			what = "basis differs from a fresh re-solve of its box"
		default:
			return
		}
		mu.Lock()
		if mismatched++; mismatched == 1 {
			firstMismatch = what
		}
		mu.Unlock()
	}
	defer func() { onEnqueue, onPop = nil, nil }()

	const searches = 3
	res := make([]Result, searches)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if res[i], err = Solve(p, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if mismatched > 0 {
		t.Fatalf("%d popped nodes do not hold their own results; the first: %s", mismatched, firstMismatch)
	}
	for _, r := range res[1:] {
		if !sameSearch(r, res[0]) {
			t.Fatalf("concurrent searches disagree: %+v vs %+v", r.SearchStats, res[0].SearchStats)
		}
	}
	r := res[0]
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	t.Logf("%d nodes, %d LP solves, %d popped children checked and %d expansions of two probes or more per search",
		r.Nodes, r.LPSolves, checked/searches, multiProbe/searches)
	if checked < 10*searches {
		t.Fatalf("checked %d popped nodes over %d searches; the search no longer branches enough", checked, searches)
	}
	// Expansions that probe two pairs or more give the losing pair's
	// results back while the heap holds its nodes' results.
	if multiProbe < 3*searches {
		t.Fatalf("%d expansions of two probes or more over %d searches; the search no longer exercises losing pairs", multiProbe, searches)
	}
}

// boxDiff counts the columns where a's and b's bounds differ.
func boxDiff(a, b *node) int {
	d := 0
	for j := range a.lo {
		if a.lo[j] != b.lo[j] || a.hi[j] != b.hi[j] {
			d++
		}
	}
	return d
}

// bits returns v's IEEE bit patterns, so NaNs and signed zeros compare
// exactly.
func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for k, x := range v {
		out[k] = math.Float64bits(x)
	}
	return out
}
