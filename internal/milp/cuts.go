package milp

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rentmin/internal/lp"
)

// Chvátal–Gomory rounding cuts over the integer rows of the problem — the
// cover/knapsack-style family for the recipe model's rental-count rows.
//
// For a row Σ a_j x_j >= b whose every participating variable is integer
// with a finite lower bound, shifting y_j = x_j - lo_j >= 0 gives
// Σ a_j y_j >= b - Σ a_j lo_j =: b″. For any multiplier t > 0,
// ceil(t·a_j) >= t·a_j on y >= 0, so Σ ceil(t·a_j)·y_j >= t·b″; the left
// side is an integer at integer points, so it can be rounded up to
// ceil(t·b″). Back-substituting x_j recovers an ordinary constraint:
//
//	Σ ceil(t·a_j)·x_j >= ceil(t·b″) + Σ ceil(t·a_j)·lo_j.
//
// On a GE coverage row r_q·ρ_j >= n_jq·x_q (machines bought must cover the
// throughput rented) the multiplier t = 1/r_q yields the integer-rounded
// machine-count bound ρ_j >= ceil(n_jq·x_q / r_q) per unit — exactly the
// knapsack-cover strengthening of the rental-count rows. LE rows are
// negated into the GE view first; the separator keeps only cuts violated
// by the current root LP point, so the LP never grows with redundant rows.
const (
	cgViolTol = 1e-6 // minimum violation at the separation point
	cgMaxCuts = 10   // per-call cap, mirroring Gomory's cutsPerRound
)

// cgCuts separates Chvátal–Gomory rounding cuts from the rows of p plus
// the caller-supplied extra rows (e.g. an objective cutoff row), violated
// at the point x. Ordering is deterministic: rows are scanned in index
// order, multipliers in sorted order, and the strongest (most violated)
// cuts win the cap. Only the winners' rows are materialized, carved from
// one backing pair.
func cgCuts(p *Problem, extra []lp.Constraint, x []float64) []lp.Constraint {
	n := p.LP.NumVars()
	lo := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j] = p.LP.LowerBound(j)
	}
	nrows := len(p.LP.Constraints)
	row := func(i int) *lp.Constraint {
		if i < nrows {
			return &p.LP.Constraints[i]
		}
		return &extra[i-nrows]
	}
	// A candidate is row i in its GE view (coefficients sign·Val), scaled
	// by t and rounded; its rounded right-hand side is rhs.
	type scored struct {
		i         int
		sign, t   float64
		rhs, viol float64
		ord       int
	}
	var cand []scored
	var mags []float64
	for i := 0; i < nrows+len(extra); i++ {
		c := row(i)
		// GE view: Σ sign·Val·x >= sign·RHS. EQ rows are skipped: each
		// side alone is weaker than the equation the LP already enforces
		// exactly.
		var sign float64
		switch c.Rel {
		case lp.GE:
			sign = 1
		case lp.LE:
			sign = -1
		default:
			continue
		}
		// Every participating variable must be integer with a finite lower
		// bound (lower bounds are always finite for a valid problem;
		// checked anyway for safety).
		nz, ok := 0, true
		mags = mags[:0]
		for k, j := range c.Idx {
			v := c.Val[k]
			if v == 0 {
				continue
			}
			if !p.Integer[j] || math.IsInf(lo[j], 0) {
				ok = false
				break
			}
			nz++
			mags = append(mags, math.Abs(v))
		}
		if !ok || nz < 2 {
			continue // a single-variable row is just a bound
		}
		shifted := sign * c.RHS
		for k, j := range c.Idx {
			shifted -= sign * c.Val[k] * lo[j]
		}
		// Candidate multipliers t = 1/m, one per distinct coefficient
		// magnitude m: descending magnitudes give ascending multipliers.
		slices.SortFunc(mags, func(a, b float64) int { return cmp.Compare(b, a) })
		mags = slices.Compact(mags)
		for _, m := range mags {
			t := 1 / m
			crhs := math.Ceil(t*shifted - 1e-9)
			lhs := 0.0
			for k, j := range c.Idx {
				v := sign * c.Val[k]
				if v == 0 {
					continue
				}
				r := math.Ceil(t*v - 1e-9)
				crhs += r * lo[j]
				lhs += r * x[j]
			}
			if viol := crhs - lhs; viol > cgViolTol {
				cand = append(cand, scored{i: i, sign: sign, t: t, rhs: crhs, viol: viol, ord: len(cand)})
			}
		}
	}
	sort.SliceStable(cand, func(i, j int) bool {
		if cand[i].viol != cand[j].viol {
			return cand[i].viol > cand[j].viol
		}
		return cand[i].ord < cand[j].ord
	})
	if len(cand) > cgMaxCuts {
		cand = cand[:cgMaxCuts]
	}
	if len(cand) == 0 {
		return nil
	}
	nnz := 0
	for _, sc := range cand {
		nnz += len(row(sc.i).Idx)
	}
	idx, val := make([]int32, 0, nnz), make([]float64, 0, nnz)
	cuts := make([]lp.Constraint, len(cand))
	for ci, sc := range cand {
		c := row(sc.i)
		s := len(idx)
		for k, j := range c.Idx {
			if r := math.Ceil(sc.t*(sc.sign*c.Val[k]) - 1e-9); r != 0 {
				idx, val = append(idx, j), append(val, r)
			}
		}
		e := len(idx)
		cuts[ci] = lp.Constraint{Idx: idx[s:e:e], Val: val[s:e:e], Rel: lp.GE, RHS: sc.rhs}
	}
	return cuts
}
