package lp

import "math"

// The pivot kernel: a sparse revised simplex.
//
// The problem is held in equality form A·x + s = b with one slack column
// per row (LE: s in [0, +inf); GE: s in (-inf, 0]; EQ: s fixed at 0) and
// column-major (CSC) storage of [A | I]. Nothing is ever shifted,
// complemented or normalized: variable bounds are native in the ratio
// tests, negative right-hand sides are fine, and the solution and duals
// read off in original coordinates. Each iteration takes one BTRAN — a
// primal one prices reduced costs with it, a dual one computes its pivot
// row and updates the reduced costs from that row (sparsewarm.go) —
// FTRANs the entering column through the factorized basis (see eta.go),
// and runs its bounded ratio test; only the nonzeros of the touched
// columns are visited, so per-iteration cost scales with the problem's
// nonzero count.
//
// Phase 1 needs no artificial columns: the all-slack basis is always a
// basis, and a basic slack that violates a bound gets that bound
// temporarily relaxed — working bounds [u, +inf) with cost +1 for a
// value above u, (-inf, l] with cost -1 for a value below l, clamped at
// the violated true bound so the variable cannot overshoot past
// feasibility. Minimizing that cost drives the total violation to zero
// exactly when the problem is feasible; the true bounds are then
// restored in place and the same basis carries into phase 2.
//
// A sparseSolver is a reusable workspace: every buffer it owns is resized
// and cleared before use, and workspaces circulate through a process-wide
// pool (see solve.go), so a steady stream of solves stops allocating
// solver state once the pooled buffers have grown to the largest LP seen.
// The problem data itself is a Model's: a one-shot solve compiles into
// the workspace's own model, and a Model.SolveFrom points the workspace
// at the caller's compiled, read-only arrays. Only Solution.X,
// Solution.Duals and the basis snapshot escape a solve. They are written
// into the caller's result (solution), X and Duals in one buffer and the
// snapshot's row and flip lists in another, reusing the result's buffers
// when they are long enough.
type sparseSolver struct {
	md   *Model // the loaded model: own, or a caller's compiled Model
	own  Model  // the workspace's own compile buffers, for one-shot solves
	m, n int    // constraint rows, structural variables
	nTot int    // n + m columns (structural + one slack per row)

	// Read-only views of md's arrays: CSC of [A | I], phase-2 cost per
	// column (structural c, slacks 0) and right-hand sides.
	csc
	obj []float64
	b   []float64

	cost   []float64 // working cost vector: obj, or phase1Cost during phase 1
	lo, hi []float64 // working bounds per column (phase 1 edits, then restores)
	x      []float64 // current value per column (bound value when nonbasic)
	status []int8    // spLower, spUpper or spBasic
	basis  []int32   // column basic at each position
	f      basisFactor
	// d holds the reduced costs of the nonbasic columns that can move
	// (lo < hi) while dualIterate runs; see price.
	d []float64
	// start is the workspace's own restore target for one-shot warm
	// solves (see run).
	start Start

	// relaxed records the phase-1 bound relaxations for restore; inPhase1
	// arms the dynamic restoration in primalIterate.
	relaxed    []relaxation
	inPhase1   bool
	phase1Cost []float64

	maxIter int
	pivots  int

	// scratch (length m, except alpha: nTot)
	vrow, wpos, cpos, yrow []float64
	alpha                  []float64 // the pivot row, by column
	rowNZ                  []int32   // columns with a nonzero pivot-row entry

	// Gomory cut scratch (gomory.go): the dense row a cut accumulates in,
	// and the gathered entries of a round's cuts.
	cutRow []float64
	cutIdx []int32
	cutVal []float64
}

type relaxation struct {
	col      int32
	over     bool // true: value above upper bound; false: below lower
	olo, ohi float64
	restored bool // true bounds re-armed (dynamically, or at phase-1 exit)
}

// Nonbasic/basic column statuses.
const (
	spLower int8 = iota // nonbasic at lower bound
	spUpper             // nonbasic at upper bound
	spBasic
)

// resize returns s with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	s = reuse(s, n)
	clear(s)
	return s
}

// reuse returns s with length n, reusing its backing array when it is
// large enough. The caller overwrites every element.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// tol is the solver's one numerical tolerance, for pricing, ratio tests
// and feasibility checks.
const tol = 1e-9

// dtol loosens tol for aggregate feasibility and degeneracy decisions
// (phase-1 infeasibility, tie windows, warm-start verification, the
// minimum pivot of a restore): every such judgement shares this scale.
var dtol = math.Sqrt(tol)

// load (re)initializes the workspace for a compiled model under the
// validated structural bounds lo/hi (nil takes the default): the model's
// read-only arrays are referenced, not copied, and every workspace-owned
// buffer is resized to the model's shape and cleared (phase1Cost where
// it is first used), so no state of an earlier solve survives into this
// one. The pivot cap is sized from the model's shape.
func (sp *sparseSolver) load(md *Model, lo, hi []float64) {
	m, n := md.m, md.n
	sp.md, sp.m, sp.n, sp.nTot = md, m, n, n+m
	sp.csc, sp.obj, sp.b = md.csc, md.obj, md.b
	sp.lo = resize(sp.lo, n+m)
	sp.hi = resize(sp.hi, n+m)
	sp.x = resize(sp.x, n+m)
	sp.status = resize(sp.status, n+m)
	sp.basis = resize(sp.basis, m)
	sp.d = resize(sp.d, n+m)
	sp.alpha = resize(sp.alpha, n+m)
	sp.rowNZ = resize(sp.rowNZ, n+m)[:0]
	sp.f.reset(m)
	sp.relaxed = sp.relaxed[:0]
	sp.inPhase1 = false
	sp.cost = sp.obj
	sp.maxIter = 2000 + 200*(m+n)
	sp.pivots = 0
	sp.vrow = resize(sp.vrow, m)
	sp.wpos = resize(sp.wpos, m)
	sp.cpos = resize(sp.cpos, m)
	sp.yrow = resize(sp.yrow, m)
	for j := 0; j < n; j++ {
		sp.lo[j] = boundAt(lo, j, 0)
		sp.hi[j] = boundAt(hi, j, math.Inf(1))
	}
	copy(sp.lo[n:], md.slo)
	copy(sp.hi[n:], md.shi)
}

// csc is column-major storage of [A | I]: column j's nonzeros are
// val[ptr[j]:ptr[j+1]], in rows ind[ptr[j]:ptr[j+1]].
type csc struct {
	ptr []int32
	ind []int32
	val []float64
}

// colDot returns v·a_j over column j's nonzeros (v in original-row space).
func (a *csc) colDot(j int, v []float64) float64 {
	s := 0.0
	for k := a.ptr[j]; k < a.ptr[j+1]; k++ {
		s += a.val[k] * v[a.ind[k]]
	}
	return s
}

// scatterCol writes column j into the dense row-space vector v (cleared
// first).
func (a *csc) scatterCol(j int, v []float64) {
	clear(v)
	for k := a.ptr[j]; k < a.ptr[j+1]; k++ {
		v[a.ind[k]] = a.val[k]
	}
}

// computeXB recomputes the basic values from the bound-resting nonbasic
// point: B·xB = b - N·x_N, solved through the current factorization.
func (sp *sparseSolver) computeXB() {
	copy(sp.vrow, sp.b)
	for j := 0; j < sp.nTot; j++ {
		if sp.status[j] == spBasic || sp.x[j] == 0 {
			continue
		}
		xj := sp.x[j]
		for k := sp.ptr[j]; k < sp.ptr[j+1]; k++ {
			sp.vrow[sp.ind[k]] -= sp.val[k] * xj
		}
	}
	sp.f.ftran(sp.vrow, sp.wpos)
	for p := 0; p < sp.m; p++ {
		sp.x[sp.basis[p]] = sp.wpos[p]
	}
}

// refactorize rebuilds the eta file and recomputes the basic values; it
// returns false on a numerically singular basis.
func (sp *sparseSolver) refactorize(minPiv float64) bool {
	if !sp.f.refactorize(sp.md, sp.basis, minPiv) {
		return false
	}
	sp.computeXB()
	return true
}

// objective returns the working objective value c·x.
func (sp *sparseSolver) objective() float64 {
	s := 0.0
	for j, c := range sp.cost {
		if c != 0 {
			s += c * sp.x[j]
		}
	}
	return s
}

// reducedCosts BTRANs the basic working costs into sp.yrow (the duals of
// the working cost vector); d_j = cost_j - yrow·a_j.
func (sp *sparseSolver) reducedCosts() {
	for p := 0; p < sp.m; p++ {
		sp.cpos[p] = sp.cost[sp.basis[p]]
	}
	sp.f.btran(sp.cpos, sp.yrow)
}

// price sets the reduced costs d_j of the nonbasic columns that can move
// from fresh duals: one BTRAN (reducedCosts), then priceFromDuals.
func (sp *sparseSolver) price() {
	sp.reducedCosts()
	sp.priceFromDuals()
}

// priceFromDuals sets d_j = cost_j - yrow·a_j for every nonbasic column
// with lo < hi, from the duals already in sp.yrow.
func (sp *sparseSolver) priceFromDuals() {
	for j := 0; j < sp.nTot; j++ {
		if sp.status[j] != spBasic && sp.lo[j] != sp.hi[j] {
			sp.d[j] = sp.cost[j] - sp.colDot(j, sp.yrow)
		}
	}
}

// primalIterate runs primal simplex iterations (pivots and bound flips)
// on the working cost vector until optimality, unboundedness, or the
// pivot cap. Entering selection is Dantzig (most-violating reduced cost)
// with a Bland fallback after a stall window without objective progress.
func (sp *sparseSolver) primalIterate() Status {
	const stallWindow = 64
	stall := 0
	lastObj := math.Inf(1)
	retried := false
	for sp.pivots < sp.maxIter {
		bland := stall >= stallWindow
		sp.reducedCosts()
		q, dir := -1, 1.0
		bestViol := tol
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			d := sp.cost[j] - sp.colDot(j, sp.yrow)
			var viol float64
			switch st {
			case spLower:
				viol = -d // entering by increasing improves when d < 0
			case spUpper:
				viol = d // entering by decreasing improves when d > 0
			}
			if viol > bestViol {
				q = j
				if st == spLower {
					dir = 1
				} else {
					dir = -1
				}
				if bland {
					break
				}
				bestViol = viol
			}
		}
		if q < 0 {
			return Optimal
		}

		sp.scatterCol(q, sp.vrow)
		sp.f.ftran(sp.vrow, sp.wpos)

		// Two-sided bounded ratio test: a basic variable blocks by falling
		// to its lower bound (positive step component) or climbing to its
		// finite upper bound (negative component); the entering variable's
		// own span hi-lo competes as a bound flip.
		limit := sp.hi[q] - sp.lo[q]
		bestP := -1
		bestT := math.Inf(1)
		bestAbs := 0.0
		toLower := false
		for p := 0; p < sp.m; p++ {
			g := dir * sp.wpos[p]
			c := sp.basis[p]
			var t float64
			var lower bool
			switch {
			case g > tol:
				l := sp.lo[c]
				if math.IsInf(l, -1) {
					continue
				}
				t, lower = (sp.x[c]-l)/g, true
			case g < -tol:
				h := sp.hi[c]
				if math.IsInf(h, 1) {
					continue
				}
				t, lower = (h-sp.x[c])/(-g), false
			default:
				continue
			}
			if t < 0 {
				t = 0 // roundoff outside the bound: degenerate, not a negative step
			}
			// Tie window: the loosened degeneracy tolerance in the
			// degenerate regime (where cycling lives), the base tolerance
			// away from it; ties prefer the larger pivot magnitude for
			// numerical stability.
			win := tol
			if t < dtol && bestT < dtol {
				win = dtol
			}
			a := math.Abs(sp.wpos[p])
			switch {
			case t < bestT-win:
				bestP, bestT, bestAbs, toLower = p, t, a, lower
			case t < bestT+win && a > bestAbs:
				bestP, bestAbs, toLower = p, a, lower
				if t < bestT {
					bestT = t
				}
			}
		}

		switch {
		case !math.IsInf(limit, 1) && (bestP < 0 || limit <= bestT):
			// The entering variable hits its own opposite bound first:
			// bound flip, no basis change, no eta.
			for p := 0; p < sp.m; p++ {
				if w := sp.wpos[p]; w != 0 {
					sp.x[sp.basis[p]] -= limit * dir * w
				}
			}
			if dir > 0 {
				sp.x[q], sp.status[q] = sp.hi[q], spUpper
			} else {
				sp.x[q], sp.status[q] = sp.lo[q], spLower
			}
			sp.pivots++
		case bestP < 0:
			return Unbounded
		default:
			g := sp.wpos[bestP]
			if math.Abs(g) < dtol && !retried && sp.f.pending() > 0 {
				// Tiny pivot through a long eta file: refactorize and
				// re-price before trusting it.
				if !sp.refactorize(tol) {
					return IterLimit
				}
				retried = true
				continue
			}
			retried = false
			leaving := sp.basis[bestP]
			t := bestT
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
			if toLower {
				sp.x[leaving], sp.status[leaving] = sp.lo[leaving], spLower
			} else {
				sp.x[leaving], sp.status[leaving] = sp.hi[leaving], spUpper
			}
			sp.restoreRelax(leaving)
			sp.status[q] = spBasic
			sp.basis[bestP] = int32(q)
			sp.f.update(bestP, sp.wpos)
			sp.pivots++
			if sp.f.needsRefactor() && !sp.refactorize(tol) {
				return IterLimit
			}
		}

		if o := sp.objective(); o < lastObj-tol {
			lastObj = o
			stall = 0
		} else {
			stall++
		}
	}
	return IterLimit
}

// phase1 makes the all-slack starting basis feasible. It returns Optimal
// when a feasible point was reached, Infeasible when the minimized
// violation stays positive, IterLimit otherwise.
func (sp *sparseSolver) phase1() Status {
	// Start: structural variables at their (finite) lower bounds, slacks
	// basic, B = I.
	for j := 0; j < sp.n; j++ {
		sp.status[j] = spLower
		sp.x[j] = sp.lo[j]
	}
	for i := 0; i < sp.m; i++ {
		sp.basis[i] = int32(sp.n + i)
		sp.status[sp.n+i] = spBasic
	}
	sp.f.identity()
	sp.computeXB()

	// Relax the violated basic bounds toward the violated side, clamped
	// at the violated bound, and charge a unit cost for the excursion.
	sp.relaxed = sp.relaxed[:0]
	sp.phase1Cost = resize(sp.phase1Cost, sp.nTot)
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		v := sp.x[c]
		switch {
		case v > sp.hi[c]+tol:
			sp.relaxed = append(sp.relaxed, relaxation{col: c, over: true, olo: sp.lo[c], ohi: sp.hi[c]})
			sp.lo[c], sp.hi[c] = sp.hi[c], math.Inf(1)
			sp.phase1Cost[c] = 1
		case v < sp.lo[c]-tol:
			sp.relaxed = append(sp.relaxed, relaxation{col: c, over: false, olo: sp.lo[c], ohi: sp.hi[c]})
			sp.lo[c], sp.hi[c] = math.Inf(-1), sp.lo[c]
			sp.phase1Cost[c] = -1
		}
	}
	if len(sp.relaxed) == 0 {
		return Optimal // already feasible
	}
	sp.cost = sp.phase1Cost
	sp.inPhase1 = true
	st := sp.primalIterate()
	sp.inPhase1 = false
	if st == IterLimit {
		return IterLimit
	}
	// The phase-1 objective is bounded below, so Unbounded can only be
	// numerical noise — treat it like an iteration failure rather than
	// reporting a wrong status.
	if st == Unbounded {
		return IterLimit
	}

	// Columns restored dynamically are already back under their true
	// bounds; a column still relaxed must have settled at its clamp (the
	// violated true bound), or the problem is infeasible.
	infeas := 0.0
	for _, r := range sp.relaxed {
		if r.restored {
			continue
		}
		v := sp.x[r.col]
		if r.over {
			infeas += math.Max(0, v-r.ohi)
		} else {
			infeas += math.Max(0, r.olo-v)
		}
	}
	if infeas > dtol {
		return Infeasible
	}

	// Restore the bounds of the columns that stayed basic through phase 1:
	// each ended within tolerance of its clamp and keeps its basic seat.
	for i := range sp.relaxed {
		r := &sp.relaxed[i]
		if r.restored {
			continue
		}
		sp.lo[r.col], sp.hi[r.col] = r.olo, r.ohi
		r.restored = true
		if sp.status[r.col] == spBasic {
			continue
		}
		if r.over {
			sp.status[r.col], sp.x[r.col] = spUpper, r.ohi
		} else {
			sp.status[r.col], sp.x[r.col] = spLower, r.olo
		}
	}
	return Optimal
}

// restoreRelax re-arms the true bounds of a phase-1 relaxed column the
// moment it leaves the basis at its clamp (the violated true bound). The
// clamp stops the column exactly at feasibility — but only its true
// bounds let later pivots move it into the feasible interior (a GE-row
// slack crossing below zero when the row is over-satisfied), so the
// working relaxation must not outlive the violation. The column's
// phase-1 cost is dropped with it: it no longer contributes to the
// infeasibility sum being minimized.
func (sp *sparseSolver) restoreRelax(c int32) {
	if !sp.inPhase1 {
		return
	}
	for i := range sp.relaxed {
		r := &sp.relaxed[i]
		if r.restored || r.col != c {
			continue
		}
		sp.lo[c], sp.hi[c] = r.olo, r.ohi
		sp.cost[c] = 0
		r.restored = true
		if r.over {
			sp.status[c], sp.x[c] = spUpper, r.ohi
		} else {
			sp.status[c], sp.x[c] = spLower, r.olo
		}
		return
	}
}

// solve runs the artificial-free phase 1 and then phase 2 on the true
// objective, and writes the outcome into sol.
func (sp *sparseSolver) solve(sol *Solution) {
	st := sp.phase1()
	if st == Optimal {
		sp.cost = sp.obj
		st = sp.repairPrimal(sp.primalIterate())
	}
	if st != Optimal {
		sol.end(st, sp.pivots, false)
		return
	}
	sp.reducedCosts()
	sp.solution(sol, false)
}

// repairPrimal is the feasibility net after phase 2: refresh the
// basic values through a clean factorization, and if roundoff drift left
// any basic value outside its bounds, alternate dual and primal pivots
// until both feasibilities hold. An unsettled basis reports IterLimit,
// never a violated "optimum".
func (sp *sparseSolver) repairPrimal(st Status) Status {
	if st != Optimal {
		return st
	}
	for round := 0; round < 4; round++ {
		if sp.f.pending() > 0 || round > 0 {
			if !sp.refactorize(tol) {
				return IterLimit
			}
		}
		if sp.withinBounds(tol) {
			return Optimal
		}
		sp.price()
		if ds := sp.dualIterate(); ds != Optimal {
			return IterLimit
		}
		if ps := sp.primalIterate(); ps != Optimal {
			return ps
		}
	}
	return IterLimit
}

// withinBounds reports whether every basic value lies within its working
// bounds up to slack.
func (sp *sparseSolver) withinBounds(slack float64) bool {
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		v := sp.x[c]
		if v < sp.lo[c]-slack || v > sp.hi[c]+slack {
			return false
		}
	}
	return true
}

// solution writes the Optimal result into sol, in original coordinates.
// sp.yrow must hold the duals of the final basis under the phase-2 cost.
func (sp *sparseSolver) solution(sol *Solution, warm bool) {
	// X and Duals share one buffer, sol's own when it is long enough; the
	// three-index slice caps X at n, so an append to X reallocates instead
	// of writing into Duals.
	sol.buf = reuse(sol.buf, sp.n+sp.m)
	x := sol.buf[:sp.n:sp.n]
	for j := 0; j < sp.n; j++ {
		v := sp.x[j]
		// Clamp roundoff-sized bound violations (cosmetic).
		if v < sp.lo[j] && v > sp.lo[j]-tol {
			v = sp.lo[j]
		}
		if v > sp.hi[j] && v < sp.hi[j]+tol {
			v = sp.hi[j]
		}
		x[j] = v
	}
	obj := 0.0
	for j, c := range sp.obj[:sp.n] {
		obj += c * x[j]
	}
	// Duals: y solves B^T·y = c_B, read directly in original-row space.
	// The reduced cost of slack i is -y_i, so a slack-basic (non-binding)
	// row automatically reports 0.
	duals := sol.buf[sp.n:]
	copy(duals, sp.yrow)
	if sol.Basis == nil {
		sol.Basis = new(Basis)
	}
	sp.snapshot(sol.Basis)
	sol.Status, sol.X, sol.Objective, sol.Iterations, sol.Duals, sol.Warm = Optimal, x, obj, sp.pivots, duals, warm
}

// Basis is an opaque snapshot of an optimal simplex basis, taken from an
// optimal solve (Solution.Basis) and restorable on a related problem via
// SolveFrom. It records the logical basis — which column is basic at
// each position, which structural columns rest at their upper bound —
// not the eta file: restoring is a refactorization, which rebuilds
// numerically fresh state anyway and keeps the snapshot valid across the
// bound patches and appended rows SolveFrom supports. The encoding is
// shape-stable: a basic column is named either as a structural index or
// as "the slack of constraint row i", so it survives appending rows.
type Basis struct {
	// rows[p] encodes the column basic at position p: v >= 0 is the
	// structural variable v; v < 0 is the slack of constraint row ^v.
	rows []int32
	// flips lists the structural columns resting at their upper bound, in
	// increasing order.
	flips []int32
	// n is the structural variable count of the snapshot's problem.
	n int
	// buf is the storage rows and flips share; a snapshot taken into this
	// Basis again reuses it (snapshot).
	buf []int32
}

// NewBasis builds a basis for a problem of n structural variables from
// the column basic in each constraint row: cols[i] >= 0 names structural
// variable cols[i], a negative cols[i] the slack of row i. No column
// rests at its upper bound. A basis that is singular, names a column
// twice, or is not dual feasible seeds nothing: SolveFrom solves cold.
func NewBasis(n int, cols []int32) *Basis {
	rows := make([]int32, len(cols))
	for i, c := range cols {
		if c < 0 {
			c = ^int32(i)
		}
		rows[i] = c
	}
	return &Basis{rows: rows, n: n}
}

// fits reports whether the snapshot can seed a solve of md: same
// structural variables, and no more rows than md (rows md appends enter
// with their slack basic). A nil snapshot fits nothing.
func (b *Basis) fits(md *Model) bool {
	return b != nil && b.n == md.n && len(b.rows) <= md.m
}

// snapshot captures the current basis into b. It counts the flips first,
// so rows and flips share b's storage, grown only when it is too short;
// the three-index slice caps rows, so an append to it reallocates instead
// of writing into flips.
func (sp *sparseSolver) snapshot(b *Basis) {
	nf := 0
	for _, s := range sp.status[:sp.n] {
		if s == spUpper {
			nf++
		}
	}
	b.buf = reuse(b.buf, sp.m+nf)
	rows, flips := b.buf[:sp.m:sp.m], b.buf[sp.m:]
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		if c < int32(sp.n) {
			rows[p] = c
		} else {
			rows[p] = ^(c - int32(sp.n)) // slack of row c-n
		}
	}
	k := 0
	for j := 0; j < sp.n; j++ {
		if sp.status[j] == spUpper {
			flips[k] = int32(j)
			k++
		}
	}
	b.rows, b.flips, b.n = rows, flips, sp.n
}
