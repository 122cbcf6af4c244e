package milp

import (
	"math"
	"math/rand"
	"testing"

	"rentmin/internal/lp"
)

// FuzzPresolve hardens the presolve -> solve -> postsolve pipeline: for a
// randomized small MILP (mixed GE/LE rows, optional box bounds, optional
// continuous columns) the presolved solve must agree with the direct
// solve — same status, same optimal objective within tolerance — and its
// lifted incumbent must be feasible for the ORIGINAL problem under the
// solver's own feasibility checker. The cfg byte toggles the surrounding
// machinery (root cuts, half-integral costs, a warm-start incumbent
// feeding the cutoff row), so the fuzzer also drives the phantom-cutoff
// and Gomory-cut paths, and both outcomes of the integral-objective
// derivation: an all-integer problem keeps its whole costs, and so its
// pruning, unless cfg bit 2 lowers some of them by 1/2. Rows carry
// explicit zero values, and with cfg bit 32 an empty row (satisfied or
// not by its right-hand side alone) joins them, so the sparse walks'
// zero-skip and empty-row branches run too. With cfg bit 64 the
// presolved solve is handed a random root basis (a column or the row's
// slack per row, duplicates and dual-infeasible picks included), which
// presolve maps onto the reduced problem: a basis changes how the root
// starts, never the answer.
//
// Unbounded outcomes are skipped: when the LP relaxation is unbounded the
// direct solve reports Unbounded, while presolve may legitimately prove
// integer infeasibility first — both truthful, not comparable.
func FuzzPresolve(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(1))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xF00D), uint8(7))
	f.Add(uint64(0xBEEF), uint8(15))
	f.Add(uint64(3), uint8(32))
	f.Add(uint64(0xCAFE), uint8(37))
	f.Add(uint64(99), uint8(63))
	f.Add(uint64(5), uint8(64|16|4))
	f.Fuzz(func(t *testing.T, seed uint64, cfg uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(4)
		m := 1 + r.Intn(3)
		p := &Problem{
			LP:      lp.Problem{Objective: make([]float64, n)},
			Integer: make([]bool, n),
		}
		boxed := cfg&4 != 0
		if boxed {
			p.LP.Hi = make([]float64, n)
		}
		for j := 0; j < n; j++ {
			p.LP.Objective[j] = float64(1 + r.Intn(15))
			p.Integer[j] = r.Intn(5) != 0 // mostly integer, some continuous
			if boxed {
				p.LP.Hi[j] = float64(1 + r.Intn(6))
			}
		}
		for i := 0; i < m; i++ {
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = float64(r.Intn(4))
			}
			vals[r.Intn(n)] = float64(1 + r.Intn(4))
			c := lp.Constraint{Rel: lp.GE, RHS: float64(r.Intn(12))}
			for j, v := range vals {
				// Odd rows omit their zero columns; even rows keep them as
				// explicit zero values, which the sparse walks must skip.
				if v != 0 || i%2 == 0 {
					c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
				}
			}
			if boxed && r.Intn(3) == 0 {
				// With finite bounds an LE row cannot cause unboundedness,
				// and it gives redundancy/coefficient-reduction real work.
				c.Rel = lp.LE
				c.RHS = float64(3 + r.Intn(15))
			}
			p.LP.Constraints = append(p.LP.Constraints, c)
		}
		if cfg&32 != 0 {
			// An empty row: a constant constraint 0 Rel RHS, feasible or
			// not by its RHS alone.
			c := lp.Constraint{Rel: lp.GE, RHS: float64(r.Intn(2))}
			if r.Intn(2) == 0 {
				c.Rel, c.RHS = lp.LE, float64(r.Intn(2)-1)
			}
			at := r.Intn(len(p.LP.Constraints) + 1)
			p.LP.Constraints = append(p.LP.Constraints[:at], append([]lp.Constraint{c}, p.LP.Constraints[at:]...)...)
		}

		opts := Options{}
		if cfg&1 != 0 && allInt(p) {
			// Gomory root cuts are only valid on pure integer programs
			// (SolveGomory's documented contract, owned by the caller).
			opts.RootCutRounds = 4
		}
		if cfg&2 != 0 {
			// Lower the first integer column's cost by 1/2, and each later
			// one's with probability 1/2: integral-objective pruning no
			// longer holds.
			first := true
			for j, isInt := range p.Integer {
				if isInt && (first || r.Intn(2) == 0) {
					p.LP.Objective[j] -= 0.5
					first = false
				}
			}
		}

		plain, err := Solve(p, &opts)
		if err != nil {
			t.Fatalf("direct solve: %v (seed=%d cfg=%d)", err, seed, cfg)
		}
		popts := opts
		popts.Presolve = true
		if cfg&16 != 0 && plain.Status == Optimal {
			// Feed the known optimum back as a warm start: the cutoff row
			// then proves it optimal either before or during the search.
			popts.Incumbent = append([]float64(nil), plain.X...)
		}
		if cfg&64 != 0 {
			popts.RootBasis = make([]int32, len(p.LP.Constraints))
			for i := range popts.RootBasis {
				popts.RootBasis[i] = int32(r.Intn(n+1) - 1)
			}
		}
		pres, err := Solve(p, &popts)
		if err != nil {
			t.Fatalf("presolved solve: %v (seed=%d cfg=%d)", err, seed, cfg)
		}
		if plain.Status == Unbounded || pres.Status == Unbounded {
			return
		}
		if plain.Status != pres.Status {
			t.Fatalf("status mismatch: direct %v, presolved %v (seed=%d cfg=%d)",
				plain.Status, pres.Status, seed, cfg)
		}
		if plain.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(plain.Objective)
		if math.Abs(plain.Objective-pres.Objective) > 1e-6*scale {
			t.Fatalf("objective mismatch: direct %g, presolved %g (seed=%d cfg=%d)",
				plain.Objective, pres.Objective, seed, cfg)
		}
		s := &solver{p: p}
		obj, err := s.checkFeasible(pres.X)
		if err != nil {
			t.Fatalf("presolved incumbent infeasible for the original: %v (seed=%d cfg=%d)", err, seed, cfg)
		}
		if math.Abs(obj-pres.Objective) > 1e-6*scale {
			t.Fatalf("lifted incumbent re-prices to %g, result says %g (seed=%d cfg=%d)",
				obj, pres.Objective, seed, cfg)
		}
	})
}

func allInt(p *Problem) bool {
	for _, isInt := range p.Integer {
		if !isInt {
			return false
		}
	}
	return true
}
