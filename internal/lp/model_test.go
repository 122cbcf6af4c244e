package lp

import (
	"math/rand"
	"testing"
)

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// modelSolve solves md under lo/hi from st into a fresh result.
func modelSolve(md *Model, lo, hi []float64, st *Start) (Solution, error) {
	var sol Solution
	err := md.SolveFrom(&sol, lo, hi, st)
	return sol, err
}

// warmChild solves a fixed LP, halves the upper bound of its largest
// variable and re-solves that child warm through a compiled model. The
// caller releases the model. The child rests columns at their upper
// bounds, so its basis has flips.
func warmChild(t *testing.T) (p, q *Problem, parent, child Solution, md *Model, st *Start) {
	t.Helper()
	p = reuseLP(rand.New(rand.NewSource(0xA110C)), 120, 90)
	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	q = p.Clone()
	j := 0
	for k, v := range parent.X {
		if v > parent.X[j] {
			j = k
		}
	}
	q.SetBounds(j, q.LowerBound(j), parent.X[j]/2)

	if md, err = NewModel(p); err != nil {
		t.Fatal(err)
	}
	st = new(Start)
	md.Restore(st, parent.Basis)
	child, err = modelSolve(md, q.Lo, q.Hi, st)
	if err != nil || !child.Warm {
		t.Fatalf("child did not re-solve warm: %v %+v", err, child.Status)
	}
	if len(child.Basis.flips) == 0 {
		t.Fatal("the child rests no column at its upper bound")
	}
	return p, q, parent, child, md, st
}

// TestModelSolveAllocs pins the allocations of the compiled path. A
// steady-state NewModel draws its buffers from the pool and allocates
// nothing, and neither does a Restore into a reused Start. A warm child
// re-solve through a model and a Start into a reused result allocates
// nothing either: the result's buffers are long enough already. The
// one-shot SolveFrom of the same child allocates the result it returns —
// one buffer for X and Duals, one for the basis snapshot's row and flip
// lists, and the *Basis.
func TestModelSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p, q, parent, _, md, st := warmChild(t)
	defer md.Release()

	var into Solution
	viaModel := testing.AllocsPerRun(50, func() {
		if err := md.SolveFrom(&into, q.Lo, q.Hi, st); err != nil {
			t.Fatal(err)
		}
	})
	if viaModel != 0 {
		t.Errorf("a warm child re-solve into a reused result allocates %v times per op, want 0", viaModel)
	}
	const want = 3 // X+Duals, rows+flips, the *Basis
	oneShot := testing.AllocsPerRun(50, func() {
		if _, err := SolveFrom(q, parent.Basis); err != nil {
			t.Fatal(err)
		}
	})
	if oneShot != want {
		t.Errorf("one-shot child re-solve allocates %v times per op; want %v (the returned result only)", oneShot, want)
	}

	compile := testing.AllocsPerRun(50, func() {
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if compile != 0 {
		t.Errorf("steady-state NewModel allocates %v times per op, want 0", compile)
	}
	restore := testing.AllocsPerRun(50, func() { md.Restore(st, parent.Basis) })
	if restore != 0 {
		t.Errorf("steady-state Restore into a reused Start allocates %v times per op, want 0", restore)
	}
}

// TestResultSharedStorage: an LP result's X and Duals share one buffer,
// and so do a basis snapshot's rows and flips, also when the result is
// reused and its buffers are longer than the LP. Each first slice is
// capped at its length, so appending to X never writes into Duals and
// appending to rows never writes into flips. The result first holds a
// larger LP, then the warm child, which must match a fresh solve.
func TestResultSharedStorage(t *testing.T) {
	_, q, _, child, md, st := warmChild(t)
	defer md.Release()
	big := reuseLP(rand.New(rand.NewSource(0xB16)), 160, 130)
	bigMd, err := NewModel(big)
	if err != nil {
		t.Fatal(err)
	}
	defer bigMd.Release()
	var res Solution
	if err := bigMd.SolveFrom(&res, big.Lo, big.Hi, nil); err != nil || res.Status != Optimal {
		t.Fatalf("large LP: %v %v", err, res.Status)
	}
	if err := md.SolveFrom(&res, q.Lo, q.Hi, st); err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "child into a reused result", res, child)
	if cap(res.buf) <= len(res.X)+len(res.Duals) {
		t.Fatal("the reused result's buffer has no room to spare; the test no longer exercises it")
	}

	duals := append([]float64(nil), res.Duals...)
	x := append(res.X, 1e300, 1e300)
	if &x[0] == &res.X[0] {
		t.Error("appending to Solution.X grew it in place")
	}
	for i, y := range res.Duals {
		if y != duals[i] {
			t.Fatalf("appending to Solution.X changed Duals[%d]: %g, was %g", i, y, duals[i])
		}
	}

	b := res.Basis
	flips := append([]int32(nil), b.flips...)
	rows := append(b.rows, -1, -1)
	if &rows[0] == &b.rows[0] {
		t.Error("appending to a Basis's rows grew them in place")
	}
	for i, f := range b.flips {
		if f != flips[i] {
			t.Fatalf("appending to a Basis's rows changed flips[%d]: %d, was %d", i, f, flips[i])
		}
	}
}
