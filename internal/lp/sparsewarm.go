package lp

import "math"

// Warm-started re-optimization.
//
// A snapshot names the logical basis, not the eta file, so restoring is
// one refactorization of the named columns: numerically fresh by
// construction. Reduced costs depend on the basis and the cost vector,
// never on b, lo or hi, so the restored basis stays dual feasible across
// bound patches and right-hand-side moves, and rows appended after the
// snapshot (branch-and-bound bound rows, cut rows) enter with their own
// slack basic and change no reduced cost either. Dual-simplex pivots
// then repair primal feasibility; anything off-script — a singular
// restored basis, a stale snapshot with materially negative reduced
// costs, an iteration limit — reports ok == false and the caller falls
// back to a cold solve.

// warm restores snapshot b (which must fit the loaded problem) and
// re-optimizes; ok == false means the caller must solve cold.
func (sp *sparseSolver) warm(b *Basis) (Solution, bool) {
	sp.inBasis = resize(sp.inBasis, sp.nTot)
	inBasis := sp.inBasis
	for p, enc := range b.rows {
		var col int32
		if enc >= 0 {
			if int(enc) >= sp.n {
				return Solution{}, false
			}
			col = enc
		} else {
			r := ^enc
			if int(r) >= sp.m {
				return Solution{}, false
			}
			col = int32(sp.n) + r
		}
		if inBasis[col] {
			return Solution{}, false
		}
		inBasis[col] = true
		sp.basis[p] = col
	}
	// Rows appended after the snapshot enter with their own slack basic.
	for p := len(b.rows); p < sp.m; p++ {
		col := int32(sp.n + p)
		if inBasis[col] {
			return Solution{}, false
		}
		inBasis[col] = true
		sp.basis[p] = col
	}

	// Nonbasic columns rest at a finite bound: the lower one when it
	// exists (structural lower bounds are always finite), else the upper
	// (a GE-row slack, whose range is (-inf, 0]).
	for j := 0; j < sp.nTot; j++ {
		if inBasis[j] {
			sp.status[j] = spBasic
			continue
		}
		if !math.IsInf(sp.lo[j], -1) {
			sp.status[j], sp.x[j] = spLower, sp.lo[j]
		} else {
			sp.status[j], sp.x[j] = spUpper, sp.hi[j]
		}
	}
	// The snapshot's at-upper columns rest at their upper bound (a
	// snapshot never lists a basic column there). A flip whose upper bound
	// the new problem removed cannot be restored.
	for _, enc := range b.flips {
		j := int(enc)
		if j < 0 || j >= sp.n {
			return Solution{}, false
		}
		if math.IsInf(sp.hi[j], 1) {
			return Solution{}, false
		}
		sp.status[j], sp.x[j] = spUpper, sp.hi[j]
	}

	if !sp.f.refactorize(sp, sp.basis, sp.dtol) {
		return Solution{}, false
	}
	sp.computeXB()
	sp.cost = sp.obj
	// The restored basis must still be dual feasible (up to roundoff); a
	// materially violated reduced cost means the snapshot is stale.
	if !sp.dualFeasible(sp.dtol) {
		return Solution{}, false
	}
	switch sp.dualIterate() {
	case Infeasible:
		return Solution{Status: Infeasible, Iterations: sp.pivots, Warm: true}, true
	case IterLimit:
		return Solution{}, false
	}
	// Polish: dual pivots keep dual feasibility only up to roundoff.
	if st := sp.primalIterate(); st != Optimal {
		return Solution{}, false
	}
	// Trust but verify before reporting optimality through the warm path.
	if !sp.withinBounds(sp.dtol) || !sp.dualFeasible(sp.dtol) {
		return Solution{}, false
	}
	return sp.solution(true), true
}

// dualFeasible reports whether every nonbasic reduced cost points into
// the feasible direction up to slack: non-negative at a lower bound,
// non-positive at an upper bound.
func (sp *sparseSolver) dualFeasible(slack float64) bool {
	sp.reducedCosts()
	for j := 0; j < sp.nTot; j++ {
		st := sp.status[j]
		if st == spBasic || sp.lo[j] == sp.hi[j] {
			continue
		}
		d := sp.cost[j] - sp.colDot(j, sp.yrow)
		if st == spLower && d < -slack {
			return false
		}
		if st == spUpper && d > slack {
			return false
		}
	}
	return true
}

// dualIterate runs dual-simplex pivots on a dual-feasible basis until
// primal feasibility (Optimal), a proof that no feasible point exists
// (Infeasible), or the pivot cap (IterLimit). Each iteration takes the
// worst bound violation among the basic values, BTRANs that position's
// unit vector into the corresponding row of B^{-1}, and picks the
// entering column by the dual ratio test: among columns whose entry
// moves the violated basic toward its bound without leaving their own
// resting bound the wrong way, minimize |reduced cost / entry| (ties to
// the larger entry magnitude for stability).
//
// Degenerate dual pivots (a zero dual step) leave the objective where it
// is and can cycle; the textbook ratio test has no anti-cycling rule. So
// after stallWindow consecutive pivots without dual-objective progress
// the loop gives up with IterLimit, and the caller's cold solve takes
// over instead of spinning to the pivot cap.
func (sp *sparseSolver) dualIterate() Status {
	const stallWindow = 64
	stall := 0
	lastObj := sp.objective()
	retried := false
	for sp.pivots < sp.maxIter {
		r := -1
		worst := sp.tol
		below := false
		for p := 0; p < sp.m; p++ {
			c := sp.basis[p]
			if v := sp.lo[c] - sp.x[c]; v > worst {
				r, worst, below = p, v, true
			}
			if v := sp.x[c] - sp.hi[c]; v > worst {
				r, worst, below = p, v, false
			}
		}
		if r < 0 {
			return Optimal
		}

		// rho = row r of B^{-1}, in original-row space: alpha_j = rho·a_j
		// is the entering column's FTRANed entry at position r.
		clear(sp.cpos)
		sp.cpos[r] = 1
		sp.f.btran(sp.cpos, sp.vrow)
		sp.reducedCosts() // yrow <- duals of the working cost

		q := -1
		bestT, bestAbs := 0.0, 0.0
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			a := sp.colDot(j, sp.vrow)
			var ok bool
			if below {
				// x_B[r] must increase: entering at-lower increases (needs
				// alpha < 0), entering at-upper decreases (needs alpha > 0).
				ok = (st == spLower && a < -sp.tol) || (st == spUpper && a > sp.tol)
			} else {
				ok = (st == spLower && a > sp.tol) || (st == spUpper && a < -sp.tol)
			}
			if !ok {
				continue
			}
			d := sp.cost[j] - sp.colDot(j, sp.yrow)
			t := math.Abs(d / a)
			abs := math.Abs(a)
			switch {
			case q < 0, t < bestT-sp.dtol:
				q, bestT, bestAbs = j, t, abs
			case t < bestT+sp.dtol && abs > bestAbs:
				q, bestAbs = j, abs
				if t < bestT {
					bestT = t
				}
			}
		}
		if q < 0 {
			// The violated row cannot be moved toward its bound by any
			// nonbasic column without breaking dual feasibility: the LP
			// dual is unbounded, so the primal is infeasible.
			return Infeasible
		}

		sp.scatterCol(q, sp.vrow)
		sp.f.ftran(sp.vrow, sp.wpos)
		g := sp.wpos[r]
		if math.Abs(g) < sp.dtol && !retried && sp.f.pending() > 0 {
			// Tiny pivot through a long eta file: refactorize, re-price.
			if !sp.refactorize(sp.tol) {
				return IterLimit
			}
			retried = true
			continue
		}
		if math.Abs(g) <= sp.tol {
			return IterLimit
		}
		retried = false

		leaving := sp.basis[r]
		target := sp.hi[leaving]
		if below {
			target = sp.lo[leaving]
		}
		dir := 1.0
		if sp.status[q] == spUpper {
			dir = -1
		}
		t := (sp.x[leaving] - target) / (dir * g)
		if t < 0 {
			t = 0 // roundoff: degenerate, not a wrong-way step
		}
		for p := 0; p < sp.m; p++ {
			if w := sp.wpos[p]; w != 0 {
				sp.x[sp.basis[p]] -= t * dir * w
			}
		}
		if dir > 0 {
			sp.x[q] = sp.lo[q] + t
		} else {
			sp.x[q] = sp.hi[q] - t
		}
		if below {
			sp.x[leaving], sp.status[leaving] = sp.lo[leaving], spLower
		} else {
			sp.x[leaving], sp.status[leaving] = sp.hi[leaving], spUpper
		}
		sp.status[q] = spBasic
		sp.basis[r] = int32(q)
		sp.f.update(r, sp.wpos)
		sp.pivots++
		if sp.f.needsRefactor() && !sp.refactorize(sp.tol) {
			return IterLimit
		}

		// The dual objective is the working objective at the current
		// basic solution; a dual pivot never lowers it.
		if o := sp.objective(); o > lastObj+sp.tol {
			lastObj = o
			stall = 0
		} else if stall++; stall >= stallWindow {
			return IterLimit
		}
	}
	return IterLimit
}
