package lp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// reuseLP builds a sparse covering LP with n columns and m GE rows of
// about six nonzeros each, boxed columns and one LE budget row; at
// (120, 90) it runs past refactorEvery pivots, so the eta stores are
// rewound mid-solve.
func reuseLP(r *rand.Rand, n, m int) *Problem {
	p := &Problem{Objective: make([]float64, n), Hi: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(1 + r.Intn(25))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for k := 0; k < 6; k++ {
			row[r.Intn(n)] = float64(1 + r.Intn(6))
		}
		p.Constraints = append(p.Constraints, dense(row, GE, float64(5+r.Intn(40))))
	}
	for j := range p.Hi {
		p.Hi[j] = float64(2 + r.Intn(8))
	}
	budget := make([]float64, n)
	for j := range budget {
		budget[j] = 1
	}
	p.Constraints = append(p.Constraints, dense(budget, LE, float64(4*n)))
	return p
}

// reuseStep is one solve of the reuse script: a problem, the basis to
// warm-start from (nil = cold), and the compiled model of the problem's
// rows, which the step may also be solved through under p's bounds.
type reuseStep struct {
	p     *Problem
	basis *Basis
	md    *Model
}

// solveBoth solves the step one-shot on sp into a fresh result and then
// through its model on the same workspace into into, so each path
// inherits the other's buffers and into keeps the result buffers of the
// caller's earlier steps, and requires both to match want bit for bit.
func (s reuseStep) solveBoth(t *testing.T, sp *sparseSolver, step int, want Solution, into *Solution) {
	t.Helper()
	var oneShot Solution
	sp.run(&oneShot, s.p, s.basis)
	sameSolution(t, fmt.Sprintf("step %d one-shot", step), oneShot, want)
	var st Start
	s.md.Restore(&st, s.basis)
	sp.runModel(into, s.md, s.p.Lo, s.p.Hi, &st)
	sameSolution(t, fmt.Sprintf("step %d model", step), *into, want)
}

// reuseScript returns the script large → small → large, cold and then
// warm (each warm step re-solves a bound-tightened child from the cold
// parent's basis), with fresh-workspace reference solutions. A child
// shares its parent's compiled model, as branch-and-bound nodes do.
func reuseScript(t *testing.T) ([]reuseStep, []Solution) {
	t.Helper()
	r := rand.New(rand.NewSource(0x5EA5))
	large, small := reuseLP(r, 120, 90), reuseLP(r, 6, 4)
	ref := func(p *Problem, b *Basis) Solution {
		var sol Solution
		new(sparseSolver).run(&sol, p, b)
		if sol.Status != Optimal {
			t.Fatalf("reference solve: %v", sol.Status)
		}
		return sol
	}
	coldLarge, coldSmall := ref(large, nil), ref(small, nil)
	if coldLarge.Iterations <= refactorEvery {
		t.Fatalf("large LP took %d pivots; it no longer exercises refactorization", coldLarge.Iterations)
	}
	child := func(p *Problem, sol Solution) *Problem {
		q := p.Clone()
		j := 0
		for k, v := range sol.X {
			if v > sol.X[j] {
				j = k
			}
		}
		q.SetBounds(j, q.LowerBound(j), sol.X[j]/2)
		return q
	}
	largeChild, smallChild := child(large, coldLarge), child(small, coldSmall)
	model := func(p *Problem) *Model {
		md, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(md.Release)
		return md
	}
	largeMd, smallMd := model(large), model(small)
	steps := []reuseStep{
		{large, nil, largeMd}, {small, nil, smallMd}, {large, nil, largeMd},
		{largeChild, coldLarge.Basis, largeMd}, {smallChild, coldSmall.Basis, smallMd}, {largeChild, coldLarge.Basis, largeMd},
	}
	want := make([]Solution, len(steps))
	for i, s := range steps {
		want[i] = ref(s.p, s.basis)
	}
	if !want[3].Warm || !want[4].Warm {
		t.Fatal("the warm steps fell back cold; the script no longer exercises warm reuse")
	}
	return steps, want
}

// sameSolution compares everything a solve reports, bit for bit.
func sameSolution(t *testing.T, what string, got, want Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations || got.Warm != want.Warm ||
		got.Objective != want.Objective {
		t.Errorf("%s: status %v iters %d warm %v obj %v; want %v %d %v %v", what,
			got.Status, got.Iterations, got.Warm, got.Objective, want.Status, want.Iterations, want.Warm, want.Objective)
	}
	if !reflect.DeepEqual(got.X, want.X) || !reflect.DeepEqual(got.Duals, want.Duals) {
		t.Errorf("%s: X or Duals differ from the reference", what)
	}
	if !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Errorf("%s: basis snapshot differs from the reference", what)
	}
}

// TestWorkspaceReuse runs the reuse script on one workspace, so every
// step inherits buffers sized and filled by a different-shaped solve, and
// requires each result to be bit-identical to a fresh workspace's: stale
// workspace state must never leak between solves. Every step solves both
// one-shot and through a compiled model, so a one-shot compile that
// wrote into a model's arrays, or a model solve that left the workspace
// pointing at them, would show. The model solves all write into one
// result, so its X, Duals and basis buffers shrink and grow with the
// script too.
func TestWorkspaceReuse(t *testing.T) {
	steps, want := reuseScript(t)
	sp := new(sparseSolver)
	var into Solution
	for round := 0; round < 2; round++ {
		for i, s := range steps {
			s.solveBoth(t, sp, i, want[i], &into)
		}
	}
}

// TestWorkspacePoolConcurrent drives the same script through the public
// API from several goroutines at once, interleaving one-shot and model
// solves, so pooled workspaces hop between goroutines, problem shapes and
// load paths while the goroutines share each read-only model (run it
// under -race). Each goroutine solves through the models into one result
// of its own.
func TestWorkspacePoolConcurrent(t *testing.T) {
	steps, want := reuseScript(t)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Start
			var viaModel Solution
			for round := 0; round < 2; round++ {
				for i, s := range steps {
					oneShot, err := SolveFrom(s.p, s.basis)
					if err != nil {
						t.Error(err)
						return
					}
					s.md.Restore(&st, s.basis)
					if err := s.md.SolveFrom(&viaModel, s.p.Lo, s.p.Hi, &st); err != nil {
						t.Error(err)
						return
					}
					sameSolution(t, fmt.Sprintf("step %d one-shot", i), oneShot, want[i])
					sameSolution(t, fmt.Sprintf("step %d model", i), viaModel, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
