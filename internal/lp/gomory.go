package lp

import (
	"cmp"
	"math"
	"slices"
)

// Gomory fractional cutting planes for pure integer programs.
//
// When every variable of the LP is integer-constrained and the constraint
// data (A, b) is integral, every slack s = b - A·x is integral at every
// integer-feasible point too. Row p of B^{-1}·[A | I] at an optimal basis
// reads
//
//	x_B(p) + Σ_{j nonbasic} α_j·x_j = β_p,   α_j = ρ·a_j,  ρ = B^{-T}·e_p,
//
// so one BTRAN of the unit vector e_p yields ρ, and one dot product per
// nonbasic CSC column yields the row — no tableau is ever formed.
// Measuring each nonbasic column from the bound it rests at, y_j = x_j -
// lo_j at its lower bound and y_j = hi_j - x_j at its upper bound, turns
// the row into x_B(p) + Σ α'_j·y_j = x̄_B(p) with α'_j = ±α_j, every y_j
// >= 0 and zero at the current vertex. With integral bounds every y_j is
// integral at integer points, so a fractional basic value x̄_B(p) yields
// the valid Gomory cut Σ frac(α'_j)·y_j >= frac(x̄_B(p)). The cut's own
// slack is again integral, so cut generation can be iterated.
//
// Cuts are translated back to structural-variable space by substituting
// y_j per column kind (slack bounds are 0 or infinite, so a slack rests
// at 0: LE slacks in [0, +inf) at their lower bound, GE slacks in
// (-inf, 0] at their upper):
//
//	structural at lower:  y_j = x_j - lo_j
//	structural at upper:  y_j = hi_j - x_j
//	LE slack of row i:    y = s_i = b_i - A_i·x
//	GE slack of row i:    y = -s_i = A_i·x - b_i
//
// which lets callers append them as ordinary constraints. Fixed columns
// (lo == hi, including EQ-row slacks) are zero in y at every feasible
// point and drop out.
//
// This is the classic device that lifts the weak fractional-machine bound
// of the rental problem toward the integer optimum; the milp package
// applies it at the root of the branch-and-bound tree.

// GomoryResult is the outcome of SolveGomory.
type GomoryResult struct {
	// Solution is the LP optimum of the final (cut-augmented) relaxation.
	// Its Iterations field accumulates the pivots of every round's solve,
	// not just the last one, so callers tracking total simplex work see
	// the full cost of the cutting-plane loop. Warm is false: the loop
	// starts from a cold solve (later rounds re-solve warm internally).
	Solution Solution
	// Cuts holds the generated constraints in structural-variable space,
	// in generation order. They are valid for every integer point of the
	// original problem.
	Cuts []Constraint
	// Rounds is the number of cut-generation rounds performed.
	Rounds int
}

// SolveGomory solves the LP relaxation, then repeatedly adds Gomory
// fractional cuts and re-solves, up to maxRounds rounds or until the bound
// stops improving or the solution turns integral. Each round keeps only
// the most fractional cuts (up to 10), the total pool is capped relative
// to the problem size, and every re-solve starts warm from the previous
// round's basis with the new cut rows' slacks basic.
//
// Validity requires that the problem is a pure integer program with
// integral constraint data; the caller is responsible for that contract.
// Cut generation additionally requires integral variable bounds: the
// bound-relative coordinates the cut rows are written in are integral at
// integer points only when every finite bound is an integer. A problem
// with a fractional bound is solved normally but no cuts are generated.
// opts is ignored (see Options).
func SolveGomory(p *Problem, opts *Options, maxRounds int) (GomoryResult, error) {
	if err := p.Validate(); err != nil {
		return GomoryResult{}, err
	}
	if !integralBounds(p) {
		maxRounds = 0
	}
	const (
		minImprove   = 1e-7
		frTol        = 1e-6
		cutsPerRound = 10
	)
	maxTotalCuts := 4 * (len(p.Constraints) + p.NumVars())
	// work shares the caller's rows; the capped slice makes the first
	// append copy the row headers, so the caller's problem never changes.
	work := *p
	work.Constraints = p.Constraints[:len(p.Constraints):len(p.Constraints)]

	sp := getWorkspace()
	defer putWorkspace(sp)
	res := GomoryResult{}
	lastObj := math.Inf(-1)
	totalIters := 0
	var basis *Basis
	for round := 0; ; round++ {
		var sol Solution
		sp.run(&sol, &work, basis)
		totalIters += sol.Iterations
		sol.Iterations = totalIters
		sol.Warm = false
		res.Solution = sol
		if sol.Status != Optimal {
			return res, nil
		}
		if round >= maxRounds || len(res.Cuts) >= maxTotalCuts {
			return res, nil
		}
		if round > 0 && sol.Objective < lastObj+minImprove {
			return res, nil // stalled
		}
		lastObj = sol.Objective
		cuts := sp.gomoryCuts(frTol, min(cutsPerRound, maxTotalCuts-len(res.Cuts)))
		if len(cuts) == 0 {
			return res, nil // integral (or nothing cuttable)
		}
		work.Constraints = append(work.Constraints, cuts...)
		res.Cuts = append(res.Cuts, cuts...)
		res.Rounds = round + 1
		basis = sol.Basis
	}
}

// integralBounds reports whether every finite variable bound of p is an
// integer — the precondition for the bounded-variable Gomory derivation.
func integralBounds(p *Problem) bool {
	for j := 0; j < p.NumVars(); j++ {
		lo := p.LowerBound(j)
		if math.IsInf(lo, 0) || math.Abs(lo-math.Round(lo)) > tol {
			return false
		}
		if hi := p.UpperBound(j); !math.IsInf(hi, 1) && math.Abs(hi-math.Round(hi)) > tol {
			return false
		}
	}
	return true
}

// gomoryCuts derives up to limit cuts from the optimal basis held in the
// workspace, strongest first: basic positions are ranked by how close
// their value's fractional part is to 1/2 (ties in position order), and
// each candidate costs one BTRAN plus one pass over the nonbasic columns.
// Numerically empty cuts are skipped without counting toward limit.
func (sp *sparseSolver) gomoryCuts(frTol float64, limit int) []Constraint {
	frac := func(v float64) float64 {
		f := v - math.Floor(v)
		if f < frTol || f > 1-frTol {
			return 0
		}
		return f
	}
	type candidate struct {
		pos int
		f0  float64
	}
	var cands []candidate
	for p := 0; p < sp.m; p++ {
		if f0 := frac(sp.x[sp.basis[p]]); f0 != 0 {
			cands = append(cands, candidate{p, f0})
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		return cmp.Compare(math.Abs(a.f0-0.5), math.Abs(b.f0-0.5))
	})

	if len(cands) == 0 {
		return nil
	}
	// Each cut accumulates in the dense scratch row sp.cutRow; its nonzeros
	// are gathered into the scratch pair sp.cutIdx/sp.cutVal, and the
	// round's cuts are then copied out of it into one backing pair.
	sp.cutRow = resize(sp.cutRow, sp.n)
	idx, val := sp.cutIdx[:0], sp.cutVal[:0]
	cuts := make([]Constraint, 0, limit)
	ends := make([]int, 0, limit)
	for _, c := range cands {
		if len(cuts) >= limit {
			break
		}
		clear(sp.cpos)
		sp.cpos[c.pos] = 1
		sp.f.btran(sp.cpos, sp.vrow) // ρ = row c.pos of B^{-1}, in row space
		coeffs := sp.cutRow
		clear(coeffs)
		rhs := c.f0
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			a := sp.colDot(j, sp.vrow)
			if st == spUpper {
				a = -a
			}
			fj := frac(a)
			if fj == 0 {
				continue
			}
			// Add fj·y_j, y_j = sign·(x_j or s_i) + const, as a term in x.
			if j < sp.n {
				if st == spLower {
					coeffs[j] += fj
					rhs += fj * sp.lo[j]
				} else {
					coeffs[j] -= fj
					rhs -= fj * sp.hi[j]
				}
				continue
			}
			row := &sp.md.p.Constraints[j-sp.n]
			sign := -fj // LE slack at lower: y = b_i - A_i·x
			if st == spUpper {
				sign = fj // GE slack at upper: y = A_i·x - b_i
			}
			for k, col := range row.Idx {
				coeffs[col] += sign * row.Val[k]
			}
			rhs += sign * row.RHS
		}
		if !slices.ContainsFunc(coeffs, func(v float64) bool { return math.Abs(v) > 1e-9 }) {
			continue // numerically empty
		}
		for j, v := range coeffs {
			if v != 0 {
				idx, val = append(idx, int32(j)), append(val, v)
			}
		}
		cuts = append(cuts, Constraint{Rel: GE, RHS: rhs})
		ends = append(ends, len(idx))
	}
	sp.cutIdx, sp.cutVal = idx, val
	idx, val = slices.Clone(idx), slices.Clone(val)
	start := 0
	for i, end := range ends {
		cuts[i].Idx, cuts[i].Val = idx[start:end:end], val[start:end:end]
		start = end
	}
	return cuts
}
