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

// Start is a basis snapshot restored once on a compiled Model: the
// factorization of its basis and the reduced cost of every nonbasic
// column under the model's cost. Neither depends on the bounds, so every
// re-solve from the snapshot — each child of a branch-and-bound node —
// starts from the same Start through Model.SolveFrom instead of
// refactorizing and re-pricing the basis itself. Model.Restore fills a
// Start and may reuse it for another basis later; the zero value is
// empty and solves cold.
type Start struct {
	md  *Model
	gen uint64 // md.gen at the restore
	ok  bool   // the restore succeeded

	basis []int32 // column basic at each position
	basic []bool  // per column: basic
	flips []int32 // a copy of the snapshot's structural columns at their upper bound
	f     basisFactor
	d     []float64 // reduced cost per nonbasic column
	cpos  []float64 // pricing scratch
	y     []float64 // duals of the basis
}

// valid reports whether st holds a successful restore of md's current
// compile.
func (st *Start) valid(md *Model) bool {
	return st != nil && st.ok && st.md == md && st.gen == md.gen
}

// restore maps snapshot b onto md's columns (rows md appends after the
// snapshot enter with their slack basic), factors that basis with
// minimum pivot dtol and prices every nonbasic column under md's cost.
// st.ok stays false when b does not fit md, names a column twice or out
// of range, or the basis is singular.
func (md *Model) restore(st *Start, b *Basis) {
	st.md, st.gen, st.ok = md, md.gen, false
	st.flips = st.flips[:0]
	if !b.fits(md) {
		return
	}
	m, n := md.m, md.n
	st.basis = resize(st.basis, m)
	st.basic = resize(st.basic, n+m)
	for p := 0; p < m; p++ {
		col := int32(n + p) // rows past the snapshot: their own slack
		if p < len(b.rows) {
			if enc := b.rows[p]; enc >= 0 {
				if int(enc) >= n {
					return
				}
				col = enc
			} else {
				r := ^enc
				if int(r) >= m {
					return
				}
				col = int32(n) + r
			}
		}
		if st.basic[col] {
			return
		}
		st.basic[col] = true
		st.basis[p] = col
	}
	for _, j := range b.flips {
		if j < 0 || int(j) >= n {
			return
		}
	}
	// The Start owns its copy: a result the snapshot came from may be
	// solved into again while the Start still serves its node.
	st.flips = append(st.flips, b.flips...)

	st.f.reset(m)
	if !st.f.refactorize(md, st.basis, dtol) {
		return
	}
	// The duals and reduced costs exactly as a solve's pricing computes
	// them (reducedCosts, priceFromDuals), so a solve from st is
	// bit-identical to one that restores b itself.
	st.cpos = resize(st.cpos, m)
	st.y = resize(st.y, m)
	for p, c := range st.basis {
		st.cpos[p] = md.obj[c]
	}
	st.f.btran(st.cpos, st.y)
	st.d = resize(st.d, n+m)
	for j := range st.d {
		if !st.basic[j] {
			st.d[j] = md.obj[j] - md.colDot(j, st.y)
		}
	}
	st.ok = true
}

// warm re-optimizes from st (valid for the loaded model) under the
// loaded bounds and writes the outcome into sol; false means the caller
// must solve cold, and sol is untouched.
func (sp *sparseSolver) warm(sol *Solution, st *Start) bool {
	if !sp.install(st) {
		return false
	}
	switch sp.dualIterate() {
	case Infeasible:
		sol.end(Infeasible, sp.pivots, true)
		return true
	case IterLimit:
		return false
	}
	// Polish: dual pivots keep dual feasibility only up to roundoff.
	if st := sp.primalIterate(); st != Optimal {
		return false
	}
	// Trust but verify before reporting optimality through the warm path.
	// The polish's last pass priced this basis under the phase-2 cost, so
	// sp.yrow holds its duals: the check and the reported duals read them
	// without another BTRAN.
	sp.priceFromDuals()
	if !sp.withinBounds(dtol) || !sp.dualFeasible(dtol) {
		return false
	}
	sp.solution(sol, true)
	return true
}

// install sets the loaded workspace up at st's basis under the loaded
// bounds: statuses, resting values, factor, basic values and reduced
// costs. It reports false when a flip cannot rest at an upper bound or
// the basis is not dual feasible under these bounds.
func (sp *sparseSolver) install(st *Start) bool {
	copy(sp.basis, st.basis)
	// Nonbasic columns rest at a finite bound: the lower one when it
	// exists (structural lower bounds are always finite), else the upper
	// (a GE-row slack, whose range is (-inf, 0]).
	for j := 0; j < sp.nTot; j++ {
		if st.basic[j] {
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
	// these bounds removed cannot be restored.
	for _, j := range st.flips {
		if math.IsInf(sp.hi[j], 1) {
			return false
		}
		sp.status[j], sp.x[j] = spUpper, sp.hi[j]
	}

	sp.f.share(&st.f)
	sp.computeXB()
	sp.cost = sp.obj
	// The restored basis must still be dual feasible (up to roundoff); a
	// materially violated reduced cost means the snapshot is stale.
	copy(sp.d, st.d)
	return sp.dualFeasible(dtol)
}

// dualFeasible reports whether every reduced cost in sp.d points into the
// feasible direction up to slack: non-negative at a lower bound,
// non-positive at an upper bound. Basic and fixed columns are exempt.
func (sp *sparseSolver) dualFeasible(slack float64) bool {
	for j := 0; j < sp.nTot; j++ {
		st := sp.status[j]
		if st == spBasic || sp.lo[j] == sp.hi[j] {
			continue
		}
		d := sp.d[j]
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
// The reduced costs in sp.d must be current on entry. Each pivot updates
// them from the pivot row it already holds (d_j -= θ·α_j with θ = d_q/α_q,
// the entering column's d_q becoming 0 and the leaving column's -θ), so a
// pivot takes one BTRAN, not a second one for fresh duals. Every
// refactorization re-prices them from fresh duals, which bounds their
// drift by the eta file's length.
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
		worst := tol
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

		q := -1
		bestT, bestAbs := 0.0, 0.0
		sp.rowNZ = sp.rowNZ[:0]
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			a := sp.colDot(j, sp.vrow)
			if a == 0 {
				continue // cannot enter, and its reduced cost stays
			}
			sp.alpha[j] = a
			sp.rowNZ = append(sp.rowNZ, int32(j))
			var ok bool
			if below {
				// x_B[r] must increase: entering at-lower increases (needs
				// alpha < 0), entering at-upper decreases (needs alpha > 0).
				ok = (st == spLower && a < -tol) || (st == spUpper && a > tol)
			} else {
				ok = (st == spLower && a > tol) || (st == spUpper && a < -tol)
			}
			if !ok {
				continue
			}
			t := math.Abs(sp.d[j] / a)
			abs := math.Abs(a)
			switch {
			case q < 0, t < bestT-dtol:
				q, bestT, bestAbs = j, t, abs
			case t < bestT+dtol && abs > bestAbs:
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
		if math.Abs(g) < dtol && !retried && sp.f.pending() > 0 {
			// Tiny pivot through a long eta file: refactorize, re-price.
			if !sp.refactorize(tol) {
				return IterLimit
			}
			sp.price()
			retried = true
			continue
		}
		if math.Abs(g) <= tol {
			return IterLimit
		}
		retried = false

		leaving := sp.basis[r]
		theta := sp.d[q] / sp.alpha[q]
		for _, j := range sp.rowNZ {
			sp.d[j] -= theta * sp.alpha[j]
		}
		sp.d[q], sp.d[leaving] = 0, -theta

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
		if sp.f.needsRefactor() {
			if !sp.refactorize(tol) {
				return IterLimit
			}
			sp.price()
		}

		// The dual objective is the working objective at the current
		// basic solution; a dual pivot never lowers it.
		if o := sp.objective(); o > lastObj+tol {
			lastObj = o
			stall = 0
		} else if stall++; stall >= stallWindow {
			return IterLimit
		}
	}
	return IterLimit
}
