package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveFrom hardens the basis snapshot/restore path: for a randomized
// base LP, snapshot the optimum, apply a fuzzer-chosen perturbation —
// patch one right-hand side, append one bound row, tighten one upper
// bound, or raise one lower bound (the last two are the bound patches
// branch and bound generates) — and re-optimize from the snapshot.
// SolveFrom must never panic, and whenever both the warm and the cold
// solver report Optimal they must agree on the objective and the warm
// point must be primal feasible and within bounds — the
// transparent-fallback contract. The bound patches also re-solve through
// the base problem's compiled Model from a Start restored from the
// snapshot, which must reproduce the one-shot result bit for bit: the
// model path differs only in how the problem is loaded and where the
// basis is restored.
func FuzzSolveFrom(f *testing.F) {
	f.Add(uint64(1), uint8(0), float64(3), uint8(0))
	f.Add(uint64(7), uint8(2), float64(-2), uint8(1))
	f.Add(uint64(42), uint8(9), float64(0.5), uint8(2))
	f.Add(uint64(0xBEEF), uint8(255), float64(1e6), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, pick uint8, delta float64, mode uint8) {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return
		}
		r := rand.New(rand.NewSource(int64(seed)))
		p := randomCoverLP(r, 2+r.Intn(6), 1+r.Intn(5))
		parent, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("base Solve: %v", err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			return
		}

		q := p.Clone()
		j := int(pick) % q.NumVars()
		switch mode % 4 {
		case 0: // patch one constraint right-hand side
			i := int(pick) % len(q.Constraints)
			q.Constraints[i].RHS += delta
		case 1: // append one bound row
			row := make([]float64, q.NumVars())
			row[j] = 1
			rel := LE
			if delta < 0 {
				rel = GE
			}
			q.Constraints = append(q.Constraints, dense(row, rel, math.Abs(delta)))
		case 2: // tighten the upper bound (down-branch shape)
			q.SetBounds(j, q.LowerBound(j), math.Max(q.LowerBound(j), math.Abs(delta)))
		case 3: // raise the lower bound (up-branch shape)
			lo := math.Abs(delta)
			hi := q.UpperBound(j)
			if lo > hi {
				lo = hi
			}
			q.SetBounds(j, lo, hi)
		}

		warm, err := SolveFrom(q, parent.Basis)
		if err != nil {
			t.Fatalf("SolveFrom: %v", err)
		}
		if mode%4 >= 2 {
			md, err := NewModel(p)
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			var st Start
			md.Restore(&st, parent.Basis)
			viaModel, err := modelSolve(md, q.Lo, q.Hi, &st)
			md.Release()
			if err != nil {
				t.Fatalf("Model.SolveFrom: %v", err)
			}
			sameSolution(t, fmt.Sprintf("mode %d model", mode%4), viaModel, warm)
		}
		cold, err := Solve(q, nil)
		if err != nil {
			t.Fatalf("cold Solve: %v", err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("warm status %v != cold status %v (seed=%d pick=%d delta=%g mode=%d)",
				warm.Status, cold.Status, seed, pick, delta, mode%4)
		}
		if warm.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-5*scale {
			t.Fatalf("warm objective %g != cold %g (seed=%d pick=%d delta=%g mode=%d)",
				warm.Objective, cold.Objective, seed, pick, delta, mode%4)
		}
		for j, v := range warm.X {
			if v < q.LowerBound(j)-1e-6 {
				t.Fatalf("warm X[%d] = %g below lower bound %g", j, v, q.LowerBound(j))
			}
			if hi := q.UpperBound(j); v > hi+1e-6 {
				t.Fatalf("warm X[%d] = %g above upper bound %g", j, v, hi)
			}
		}
		for i, c := range q.Constraints {
			dot := c.Dot(warm.X)
			slack := 1e-6 * (1 + math.Abs(c.RHS))
			switch c.Rel {
			case LE:
				if dot > c.RHS+slack {
					t.Fatalf("warm point violates row %d: %g > %g", i, dot, c.RHS)
				}
			case GE:
				if dot < c.RHS-slack {
					t.Fatalf("warm point violates row %d: %g < %g", i, dot, c.RHS)
				}
			case EQ:
				if math.Abs(dot-c.RHS) > slack {
					t.Fatalf("warm point violates row %d: %g != %g", i, dot, c.RHS)
				}
			}
		}
	})
}
