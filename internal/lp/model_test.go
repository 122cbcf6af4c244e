package lp

import (
	"math/rand"
	"testing"
)

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// flipsSink keeps the flips copy in TestModelSolveAllocs on the heap.
var flipsSink []int32

// TestModelSolveAllocs pins the allocations of the compiled path. A
// steady-state NewModel draws its buffers from the pool and allocates
// nothing, and neither does a Restore into a reused Start. A warm child
// re-solve through a model and a Start allocates only what escapes the
// solve — X, Duals, the basis snapshot and its row and flip lists — which
// is exactly what the one-shot SolveFrom of the same child allocates.
func TestModelSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p := reuseLP(rand.New(rand.NewSource(0xA110C)), 120, 90)
	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	q := p.Clone()
	j := 0
	for k, v := range parent.X {
		if v > parent.X[j] {
			j = k
		}
	}
	q.SetBounds(j, q.LowerBound(j), parent.X[j]/2)

	md, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Release()
	var st Start
	md.Restore(&st, parent.Basis)
	child, err := md.SolveFrom(q.Lo, q.Hi, &st, nil)
	if err != nil || !child.Warm {
		t.Fatalf("child did not re-solve warm: %v %+v", err, child.Status)
	}

	// X, Duals, the Basis and its rows, plus the growth steps of flips.
	want := 4 + testing.AllocsPerRun(10, func() {
		var f []int32
		for _, v := range child.Basis.flips {
			f = append(f, v)
		}
		flipsSink = f
	})
	viaModel := testing.AllocsPerRun(50, func() {
		if _, err := md.SolveFrom(q.Lo, q.Hi, &st, nil); err != nil {
			t.Fatal(err)
		}
	})
	oneShot := testing.AllocsPerRun(50, func() {
		if _, err := SolveFrom(q, parent.Basis, nil); err != nil {
			t.Fatal(err)
		}
	})
	if viaModel != want || oneShot != want {
		t.Errorf("child re-solve allocates %v times through the model and %v one-shot; want %v (the escaping results only)",
			viaModel, oneShot, want)
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
	restore := testing.AllocsPerRun(50, func() { md.Restore(&st, parent.Basis) })
	if restore != 0 {
		t.Errorf("steady-state Restore into a reused Start allocates %v times per op, want 0", restore)
	}
}
