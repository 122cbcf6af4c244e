package lp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// siblings returns bound-patched children of p around its optimum x: for
// each of the k structural columns farthest from zero, a down child
// (upper bound halved) and an up child (lower bound raised past the
// optimum), the two shapes a branching decision produces.
func siblings(p *Problem, x []float64, k int) []*Problem {
	order := make([]int, len(x))
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(x[b], x[a]) })
	var kids []*Problem
	for _, j := range order[:k] {
		down := p.Clone()
		down.SetBounds(j, down.LowerBound(j), x[j]/2)
		up := p.Clone()
		up.SetBounds(j, math.Min(math.Floor(x[j])+1, up.UpperBound(j)), up.UpperBound(j))
		kids = append(kids, down, up)
	}
	return kids
}

// TestRestoreSiblingsBitIdentical restores one Start from a parent basis
// and solves every sibling child through it: each result must be the
// one-shot SolveFrom of that child from the parent's basis, bit for bit
// (X, objective, pivots, the warm flag, duals and the basis snapshot's
// rows and flips). The siblings share the Start, as a branch-and-bound
// node's children do: first one after another, so a solve that wrote
// into it would show in the siblings after it, then all at once, as pool
// workers solve them (run it under -race).
func TestRestoreSiblingsBitIdentical(t *testing.T) {
	p := reuseLP(rand.New(rand.NewSource(0x51B5)), 120, 90)
	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	md, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Release()
	var st Start
	md.Restore(&st, parent.Basis)

	kids := siblings(p, parent.X, 5)
	want := make([]Solution, len(kids))
	warm := 0
	for i, q := range kids {
		if want[i], err = SolveFrom(q, parent.Basis); err != nil {
			t.Fatal(err)
		}
		got, err := modelSolve(md, q.Lo, q.Hi, &st)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("sibling %d", i), got, want[i])
		if got.Warm {
			warm++
		}
	}
	if warm < len(kids)/2 {
		t.Fatalf("only %d of %d siblings re-solved warm; the test no longer exercises the Start", warm, len(kids))
	}

	var wg sync.WaitGroup
	for i, q := range kids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := modelSolve(md, q.Lo, q.Hi, &st)
			if err != nil {
				t.Error(err)
				return
			}
			sameSolution(t, fmt.Sprintf("concurrent sibling %d", i), got, want[i])
		}()
	}
	wg.Wait()
}

// TestStartOwnsItsFlips: a Start keeps its own copy of the restored
// snapshot's at-upper columns. A result whose basis a Start was restored
// from is solved into again, which rewrites the basis's storage in place,
// and the children solved from the Start afterwards must still be the
// one-shot re-solves from the basis as it was.
func TestStartOwnsItsFlips(t *testing.T) {
	p, q, _, _, md, st := warmChild(t)
	defer md.Release()
	var res Solution
	if err := md.SolveFrom(&res, q.Lo, q.Hi, st); err != nil || res.Status != Optimal {
		t.Fatalf("child: %v %v", err, res.Status)
	}
	saved := &Basis{rows: slices.Clone(res.Basis.rows), flips: slices.Clone(res.Basis.flips), n: res.Basis.n}
	var own Start
	md.Restore(&own, res.Basis)

	kids := siblings(q, res.X, 3)
	want := make([]Solution, len(kids))
	for i, k := range kids {
		var err error
		if want[i], err = SolveFrom(k, saved); err != nil {
			t.Fatal(err)
		}
	}
	flips := res.Basis.flips
	// Recycle the result: a cold solve of the parent into it.
	if err := md.SolveFrom(&res, p.Lo, p.Hi, nil); err != nil || res.Status != Optimal {
		t.Fatalf("recycling solve: %v %v", err, res.Status)
	}
	if slices.Equal(flips, saved.flips) {
		t.Fatal("the recycling solve left the old flips' storage as it was; the test no longer exercises it")
	}
	warm := 0
	for i, k := range kids {
		got, err := modelSolve(md, k.Lo, k.Hi, &own)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("grandchild %d", i), got, want[i])
		if got.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no grandchild re-solved warm; the test no longer exercises the Start")
	}
}

// TestStaleStartSolvesCold checks that a Start serves only the compile it
// was restored on. A Start restored on model A stays stale after A is
// released and the pool compiles model B into the same buffers — the
// basis fits B, so only the compile generation tells them apart — and a
// Start whose basis does not fit the model records a failed restore.
// Both solve cold, exactly as B's own cold solve.
func TestStaleStartSolvesCold(t *testing.T) {
	r := rand.New(rand.NewSource(0x57A1E))
	p := reuseLP(r, 40, 30)
	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	q := siblings(p, parent.X, 1)[0]

	a, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	var st Start
	a.Restore(&st, parent.Basis)
	if sol, err := modelSolve(a, q.Lo, q.Hi, &st); err != nil || !sol.Warm {
		t.Fatalf("fresh Start did not re-solve warm: %v %+v", err, sol.Status)
	}
	a.Release()
	b, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	t.Logf("model B reuses model A's pointer: %v", a == b)

	cold, err := modelSolve(b, q.Lo, q.Hi, nil)
	if err != nil || cold.Warm {
		t.Fatalf("nil Start: %v warm %v", err, cold.Warm)
	}
	stale, err := modelSolve(b, q.Lo, q.Hi, &st)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "stale Start", stale, cold)

	other, err := Solve(reuseLP(r, 30, 20), nil)
	if err != nil || other.Status != Optimal {
		t.Fatalf("other: %v %v", err, other.Status)
	}
	b.Restore(&st, other.Basis)
	misfit, err := modelSolve(b, q.Lo, q.Hi, &st)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "Start from a non-fitting basis", misfit, cold)
}

// TestDualUpdateDrift runs a warm re-solve long enough to refactorize
// inside dualIterate and checks the reduced costs it maintains by the
// pivot-row update against a fresh pricing when it reaches Optimal:
// every column the kernel prices must agree within the loosened
// tolerance. The completed warm solve must then match the cold optimum.
func TestDualUpdateDrift(t *testing.T) {
	p := reuseLP(rand.New(rand.NewSource(2)), 120, 90)
	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	// Raise the lower bound of every column the optimum leaves at zero:
	// one child far from its parent's vertex that stays feasible.
	q := p.Clone()
	for j, v := range parent.X {
		if v == 0 {
			q.SetBounds(j, math.Min(3, q.UpperBound(j)), q.UpperBound(j))
		}
	}
	md, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Release()
	var st Start
	md.Restore(&st, parent.Basis)

	sp := new(sparseSolver)
	sp.load(md, q.Lo, q.Hi)
	if !sp.install(&st) {
		t.Fatal("the restored basis was rejected")
	}
	if got := sp.dualIterate(); got != Optimal {
		t.Fatalf("dualIterate: %v after %d pivots", got, sp.pivots)
	}
	if sp.pivots <= refactorEvery {
		t.Fatalf("the re-solve took %d dual pivots; it no longer runs past a refactorization", sp.pivots)
	}
	kept := append([]float64(nil), sp.d...)
	sp.price()
	worst := 0.0
	for j := 0; j < sp.nTot; j++ {
		if sp.status[j] == spBasic || sp.lo[j] == sp.hi[j] {
			continue
		}
		worst = math.Max(worst, math.Abs(kept[j]-sp.d[j]))
	}
	t.Logf("%d dual pivots; largest reduced-cost drift %.3g", sp.pivots, worst)
	if worst > dtol {
		t.Errorf("maintained reduced costs drift by %g from a fresh pricing, beyond %g", worst, dtol)
	}

	warm, err := modelSolve(md, q.Lo, q.Hi, &st)
	if err != nil || !warm.Warm || warm.Status != Optimal {
		t.Fatalf("warm re-solve: %v warm %v %v", err, warm.Warm, warm.Status)
	}
	cold, err := Solve(q, nil)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve: %v %v", err, cold.Status)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
}
