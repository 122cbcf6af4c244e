package milp

import (
	"math"
	"slices"

	"rentmin/internal/lp"
)

// Root-node presolve: the classic Andersen & Andersen (1995) reduction
// menu applied once before branch and bound. Working on a copy of the
// problem, it iterates four rule families to a fixpoint (bounded by a
// small round cap):
//
//   - activity-based bound tightening: from a row's minimum/maximum
//     activity against its RHS, each variable's bound is tightened to the
//     tightest value any feasible point can take; integer columns round
//     the result inward. A row whose minimum activity already exceeds its
//     RHS proves infeasibility, one whose maximum activity cannot reach
//     it is redundant and removed;
//   - fixed-variable substitution: a column whose bounds have closed
//     (lo == hi) is substituted into every row and the objective and
//     removed from the problem;
//   - empty-column elimination: a column appearing in no row is fixed at
//     whichever bound its objective coefficient prefers;
//   - coefficient reduction on integer columns: for an LE row with
//     integer x_j (a_j > 0, finite upper bound u_j) whose slack at
//     x_j = u_j-1 is d = b - maxact_rest - a_j*(u_j-1) with 0 < d <= a_j,
//     replacing a_j by a_j-d and b by b-d*u_j keeps the integer feasible
//     set identical while tightening the LP relaxation (the mirrored rule
//     applies to a_j < 0 through the variable's lower bound, and GE rows
//     through negation).
//
// When the search already holds an incumbent, its objective is fed in as
// a cutoff: a phantom row objective·x <= cutoff that participates in
// propagation (and in the infeasibility test) but is never emitted into
// the reduced problem. The cutoff is non-strict, so every optimum — in
// particular the incumbent itself — survives presolve; its value is that
// the recipe MILP's natural formulation has no finite upper bounds at
// all, and only the cutoff gives activity-based tightening a foothold
// (machine counts bounded by cost, then recipe throughputs bounded
// through the coverage rows). "Infeasible" under a finite cutoff
// therefore means "nothing beats the incumbent", which proves the
// incumbent optimal.
//
// Every reduction is valid for all integer points satisfying the cutoff,
// so lifting a reduced-space optimum with Postsolve yields an optimum of
// the original problem.

// presolve tolerances. Infeasibility and redundancy are decided with a
// margin well inside checkFeasible's 1e-6 so that a point feasible for
// the reduced problem can never trip the original problem's feasibility
// check on a removed row.
const (
	presolveMaxRounds = 10
	presolveFeasTol   = 1e-6 // proving a row infeasible needs this much violation
	presolveEps       = 1e-9 // minimum improvement worth recording / redundancy slack
)

// PresolveStats counts the reductions one presolve pass applied. All
// counters are deterministic for a fixed problem and cutoff (presolve
// runs once, before the search starts).
type PresolveStats struct {
	// RowsRemoved counts constraint rows eliminated as redundant or empty.
	RowsRemoved int `json:"rows_removed"`
	// ColsFixed counts variables fixed and substituted out (closed bounds
	// and empty columns).
	ColsFixed int `json:"cols_fixed"`
	// BoundsTightened counts individual bound-tightening events.
	BoundsTightened int `json:"bounds_tightened"`
	// CoeffsReduced counts integer coefficient-reduction events.
	CoeffsReduced int `json:"coeffs_reduced"`
}

// empty reports whether the pass changed nothing.
func (s PresolveStats) empty() bool { return s == PresolveStats{} }

// Reduced is the outcome of a presolve pass: the reduced problem plus the
// postsolve map that lifts its points back to the original variable space.
// One from Presolve is the caller's. A search presolves into its scratch
// instead, so the Reduced it searches, its problem included, lives only
// as long as the search.
type Reduced struct {
	// P is the reduced problem. It may have zero variables (every column
	// was fixed; the unique candidate point is Postsolve(nil)) — note
	// lp.Validate rejects zero-variable problems, so callers must handle
	// that case before solving. P is nil when Infeasible.
	P *Problem
	// Infeasible reports that presolve proved no integer point satisfies
	// the constraints and the cutoff. Under a finite cutoff this means no
	// feasible point beats the incumbent that supplied it.
	Infeasible bool
	// Stats counts the applied reductions.
	Stats PresolveStats
	// ObjOffset is the objective contribution of the fixed variables: the
	// original objective of a lifted point is the reduced objective plus
	// this constant.
	ObjOffset float64

	origN int
	keep  []int // reduced column -> original column
	// basis is the caller's root basis mapped onto P's rows and columns
	// (see Options.RootBasis); nil unless presolve was given one.
	basis    []int32
	fixedVal []float64
	isFixed  []bool
}

// Postsolve lifts a reduced-space point back to the original variable
// space, restoring every fixed variable. x must have one entry per
// reduced variable (nil when the reduced problem has zero variables).
func (r *Reduced) Postsolve(x []float64) []float64 {
	return r.postsolveInto(nil, x)
}

// postsolveInto is Postsolve into out, which it grows to the original
// variable count when it is shorter.
func (r *Reduced) postsolveInto(out, x []float64) []float64 {
	if cap(out) < r.origN {
		out = make([]float64, r.origN)
	}
	out = out[:r.origN]
	for j := range out {
		out[j] = 0
		if r.isFixed[j] {
			out[j] = r.fixedVal[j]
		}
	}
	for i, j := range r.keep {
		out[j] = x[i]
	}
	return out
}

// presRow is one working row of the presolve pass. Its entries are
// pres.idx/val[start:end], in original column space and ascending column
// order; a fixed column's entry is zeroed after substitution, and zero
// entries count as absent.
type presRow struct {
	start, end int32
	rel        lp.Relation
	rhs        float64
	dead       bool
	phantom    bool // cutoff row: propagates but is never emitted
}

// pres is the working state of one presolve pass and the storage of its
// output. Every row's nonzeros sit in one flat idx/val pair, and the
// column index lists, per column and in ascending row order, the rows
// holding it and the entry's position, so each pass costs O(nnz). run
// rebuilds every field from its problem and keeps only the buffers, so a
// search's scratch presolves one problem after another without
// allocating once its buffers have grown.
type pres struct {
	rows []presRow
	idx  []int32
	val  []float64
	// Column j's entries are colRow/colPos[colStart[j]:colStart[j+1]];
	// next is load's fill cursor per column.
	colStart, colRow, colPos, next []int32
	cutoff                         lp.Constraint // the phantom row's storage

	lo, hi  []float64
	live    []bool // column not yet fixed
	obj     []float64
	isInt   []bool
	changed bool
	stats   PresolveStats
	objOff  float64

	// build's output: red and its problem rp, over the buffers below and
	// lo/hi/idx/val, which build compacts in place into rp's bounds and
	// rows.
	red      Reduced
	rp       Problem
	colOf    []int32 // original column -> reduced, -1 when fixed
	keep     []int
	basis    []int32
	fixedVal []float64
	isFixed  []bool
}

// Presolve runs the root reduction pass on p with the given objective
// cutoff (pass +inf for none). The input problem is not modified, and
// the result is the caller's.
func Presolve(p *Problem, cutoff float64) *Reduced { return presolve(p, cutoff, nil) }

// presolve is Presolve that also maps basis, a root basis in p's rows
// and columns (see Options.RootBasis), onto the reduced problem.
func presolve(p *Problem, cutoff float64, basis []int32) *Reduced {
	return new(pres).run(p, cutoff, basis)
}

// run is presolve into w: the Reduced it returns, and everything it
// points to, is w's until the next run.
func (w *pres) run(p *Problem, cutoff float64, basis []int32) *Reduced {
	n := p.LP.NumVars()
	w.lo, w.hi, w.live = grow(w.lo, n), grow(w.hi, n), grow(w.live, n)
	w.obj, w.isInt = p.LP.Objective, p.Integer
	w.changed, w.stats, w.objOff = false, PresolveStats{}, 0
	for j := 0; j < n; j++ {
		w.lo[j] = p.LP.LowerBound(j)
		w.hi[j] = p.LP.UpperBound(j)
		w.live[j] = true
		if w.isInt[j] {
			w.lo[j] = math.Ceil(w.lo[j] - intTol)
			if !math.IsInf(w.hi[j], 1) {
				w.hi[j] = math.Floor(w.hi[j] + intTol)
			}
		}
	}
	w.load(p, cutoff)

	for round := 0; round < presolveMaxRounds; round++ {
		w.changed = false
		if w.tightenAll() {
			return w.infeasible(n)
		}
		w.fixClosed()
		w.fixEmpty()
		w.reduceCoefficients()
		if !w.changed {
			break
		}
	}
	if w.dropEmptyRows() {
		return w.infeasible(n)
	}
	return w.build(p, basis)
}

// release drops w's references to the last problem it presolved, so a
// pooled scratch keeps no caller's problem alive.
func (w *pres) release() {
	w.obj, w.isInt = nil, nil
}

// grow returns s with length n, reusing its backing array when it is
// large enough; never nil. The caller overwrites every element.
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load copies p's rows (and, under a finite cutoff, the phantom cutoff
// row) into flat storage, dropping zero values, and builds the column
// index.
func (w *pres) load(p *Problem, cutoff float64) {
	n := p.LP.NumVars()
	rows := len(p.LP.Constraints)
	var phantom *lp.Constraint
	nnz := 0
	if !math.IsInf(cutoff, 1) {
		phantom = w.cutoffRow(p.LP.Objective, cutoff)
		rows++
		nnz += len(phantom.Idx)
	}
	for i := range p.LP.Constraints {
		nnz += len(p.LP.Constraints[i].Idx)
	}
	w.rows = slices.Grow(w.rows[:0], rows)
	w.idx, w.val = slices.Grow(w.idx[:0], nnz), slices.Grow(w.val[:0], nnz)
	w.colStart = grow(w.colStart, n+1)
	clear(w.colStart)
	for i := range p.LP.Constraints {
		w.addRow(&p.LP.Constraints[i], false)
	}
	if phantom != nil {
		w.addRow(phantom, true)
	}

	// Counting sort by column: rows are visited in order, so each
	// column's list comes out in ascending row order.
	for j := 0; j < n; j++ {
		w.colStart[j+1] += w.colStart[j]
	}
	w.next = append(w.next[:0], w.colStart[:n]...)
	w.colRow = grow(w.colRow, len(w.idx))
	w.colPos = grow(w.colPos, len(w.idx))
	for i, r := range w.rows {
		for k := r.start; k < r.end; k++ {
			j := w.idx[k]
			w.colRow[w.next[j]], w.colPos[w.next[j]] = int32(i), k
			w.next[j]++
		}
	}
}

// addRow appends c's nonzeros to the flat storage as one working row and
// counts them into colStart.
func (w *pres) addRow(c *lp.Constraint, phantom bool) {
	start := int32(len(w.idx))
	for k, j := range c.Idx {
		if v := c.Val[k]; v != 0 {
			w.idx, w.val = append(w.idx, j), append(w.val, v)
			w.colStart[j+1]++
		}
	}
	w.rows = append(w.rows, presRow{start: start, end: int32(len(w.idx)), rel: c.Rel, rhs: c.RHS, phantom: phantom})
}

// cutoffRow returns the objective cutoff obj·x <= cutoff as a row over
// obj's nonzeros, in w's storage for it.
func (w *pres) cutoffRow(obj []float64, cutoff float64) *lp.Constraint {
	c := &w.cutoff
	c.Idx, c.Val, c.Rel, c.RHS = c.Idx[:0], c.Val[:0], lp.LE, cutoff
	for j, v := range obj {
		if v != 0 {
			c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
		}
	}
	return c
}

// infeasible returns w's Reduced as a proof of infeasibility.
func (w *pres) infeasible(n int) *Reduced {
	w.red = Reduced{Infeasible: true, Stats: w.stats, origN: n}
	return &w.red
}

// activity computes a row's minimum and maximum activity over the current
// bounds as finite partial sums plus counts of infinite contributions
// (lower bounds are always finite, so only +inf upper bounds produce
// them: a positive coefficient pushes maxAct to +inf, a negative one
// pushes minAct to -inf).
type activity struct {
	minSum, maxSum float64
	minInf, maxInf int
}

func (w *pres) rowActivity(r *presRow) activity {
	var a activity
	for k := r.start; k < r.end; k++ {
		j, v := w.idx[k], w.val[k]
		if v == 0 || !w.live[j] {
			continue
		}
		if v > 0 {
			a.minSum += v * w.lo[j]
			if math.IsInf(w.hi[j], 1) {
				a.maxInf++
			} else {
				a.maxSum += v * w.hi[j]
			}
		} else {
			if math.IsInf(w.hi[j], 1) {
				a.minInf++
			} else {
				a.minSum += v * w.hi[j]
			}
			a.maxSum += v * w.lo[j]
		}
	}
	return a
}

// minRest / maxRest return the row activity excluding column j, whose
// coefficient is v, or ±inf when other columns contribute an infinity.
func (w *pres) minRest(a activity, v float64, j int32) float64 {
	contrib, inf := 0.0, false
	if v > 0 {
		contrib = v * w.lo[j]
	} else if math.IsInf(w.hi[j], 1) {
		inf = true
	} else {
		contrib = v * w.hi[j]
	}
	rest := a.minInf
	if inf {
		rest--
	}
	if rest > 0 {
		return math.Inf(-1)
	}
	if inf {
		return a.minSum
	}
	return a.minSum - contrib
}

func (w *pres) maxRest(a activity, v float64, j int32) float64 {
	contrib, inf := 0.0, false
	if v < 0 {
		contrib = v * w.lo[j]
	} else if math.IsInf(w.hi[j], 1) {
		inf = true
	} else {
		contrib = v * w.hi[j]
	}
	rest := a.maxInf
	if inf {
		rest--
	}
	if rest > 0 {
		return math.Inf(1)
	}
	if inf {
		return a.maxSum
	}
	return a.maxSum - contrib
}

// tightenAll runs the activity pass over every live row: infeasibility
// tests, redundant-row removal and per-variable bound tightening. It
// returns true when infeasibility is proven.
func (w *pres) tightenAll() bool {
	for i := range w.rows {
		r := &w.rows[i]
		if r.dead {
			continue
		}
		a := w.rowActivity(r)
		minAct, maxAct := a.minSum, a.maxSum
		if a.minInf > 0 {
			minAct = math.Inf(-1)
		}
		if a.maxInf > 0 {
			maxAct = math.Inf(1)
		}
		// Infeasibility: the row cannot be satisfied by any point in the
		// current box.
		switch r.rel {
		case lp.LE:
			if minAct > r.rhs+presolveFeasTol {
				return true
			}
		case lp.GE:
			if maxAct < r.rhs-presolveFeasTol {
				return true
			}
		case lp.EQ:
			if minAct > r.rhs+presolveFeasTol || maxAct < r.rhs-presolveFeasTol {
				return true
			}
		}
		// Redundancy: every point in the box satisfies the row. Decided
		// with the tight presolveEps margin so removed rows hold with
		// ~1e-9 slack at any point of the reduced box — far inside the
		// 1e-6 the feasibility checker allows.
		redundant := false
		switch r.rel {
		case lp.LE:
			redundant = maxAct <= r.rhs+presolveEps
		case lp.GE:
			redundant = minAct >= r.rhs-presolveEps
		case lp.EQ:
			redundant = maxAct <= r.rhs+presolveEps && minAct >= r.rhs-presolveEps
		}
		if redundant {
			r.dead = true
			w.changed = true
			if !r.phantom {
				w.stats.RowsRemoved++
			}
			continue
		}
		// Bound tightening. An LE row bounds x_j from above (a_j > 0) or
		// below (a_j < 0) through the minimum activity of the rest; a GE
		// row mirrors through the maximum activity; an EQ row does both.
		for k := r.start; k < r.end; k++ {
			j, v := w.idx[k], w.val[k]
			if v == 0 || !w.live[j] {
				continue
			}
			if r.rel == lp.LE || r.rel == lp.EQ {
				if rest := w.minRest(a, v, j); !math.IsInf(rest, -1) {
					if w.applyBound(j, (r.rhs-rest)/v, v > 0) {
						return true
					}
				}
			}
			if r.rel == lp.GE || r.rel == lp.EQ {
				if rest := w.maxRest(a, v, j); !math.IsInf(rest, 1) {
					if w.applyBound(j, (r.rhs-rest)/v, v < 0) {
						return true
					}
				}
			}
		}
	}
	return false
}

// applyBound installs a derived bound on column j — an upper bound when
// upper is set, a lower bound otherwise — rounding inward for integer
// columns. It returns true when the bounds cross (infeasible).
func (w *pres) applyBound(j int32, b float64, upper bool) bool {
	if upper {
		if w.isInt[j] {
			b = math.Floor(b + intTol)
		}
		if b < w.hi[j]-presolveEps {
			w.hi[j] = b
			w.changed = true
			w.stats.BoundsTightened++
		}
	} else {
		if w.isInt[j] {
			b = math.Ceil(b - intTol)
		}
		if b > w.lo[j]+presolveEps {
			w.lo[j] = b
			w.changed = true
			w.stats.BoundsTightened++
		}
	}
	return w.lo[j] > w.hi[j]+presolveFeasTol
}

// fixColumn substitutes column j at value v into every live row and the
// objective and removes it from the problem.
func (w *pres) fixColumn(j int, v float64) {
	for e := w.colStart[j]; e < w.colStart[j+1]; e++ {
		r, k := &w.rows[w.colRow[e]], w.colPos[e]
		if r.dead || w.val[k] == 0 {
			continue
		}
		r.rhs -= w.val[k] * v
		w.val[k] = 0
	}
	w.objOff += w.obj[j] * v
	w.lo[j], w.hi[j] = v, v
	w.live[j] = false
	w.changed = true
	w.stats.ColsFixed++
}

// fixClosed substitutes every column whose bounds have closed.
func (w *pres) fixClosed() {
	for j := range w.live {
		if !w.live[j] {
			continue
		}
		if w.hi[j]-w.lo[j] <= presolveEps {
			v := w.lo[j]
			if w.isInt[j] {
				v = math.Round(v)
			}
			w.fixColumn(j, v)
		}
	}
}

// fixEmpty fixes columns that appear in no live real row at the bound
// their objective coefficient prefers. A column whose preferred bound is
// infinite is left in place — the LP relaxation then reports Unbounded
// exactly as it would without presolve. The phantom cutoff row is
// ignored here: the objective sign decides, and moving a variable toward
// its cheaper bound can only help the cutoff row.
func (w *pres) fixEmpty() {
	for j := range w.live {
		if !w.live[j] {
			continue
		}
		used := false
		for e := w.colStart[j]; e < w.colStart[j+1]; e++ {
			r := &w.rows[w.colRow[e]]
			if !r.dead && !r.phantom && w.val[w.colPos[e]] != 0 {
				used = true
				break
			}
		}
		if used {
			continue
		}
		switch {
		case w.obj[j] > 0:
			w.fixColumn(j, w.lo[j])
		case w.obj[j] < 0:
			if !math.IsInf(w.hi[j], 1) {
				w.fixColumn(j, w.hi[j])
			}
		default:
			switch {
			case w.lo[j] <= 0 && 0 <= w.hi[j]:
				w.fixColumn(j, 0)
			default:
				w.fixColumn(j, w.lo[j])
			}
		}
	}
}

// reduceCoefficients applies the integer coefficient-reduction rule to
// every live inequality row (EQ rows and the phantom cutoff row are
// skipped: the rule is only valid for one-sided constraints, and the
// cutoff row is not part of the output). Working in the LE view
// (GE rows are negated in and out), for integer x_j with a_j > 0 and
// finite u_j, d = b - maxRest - a_j*(u_j-1) measures the row's slack
// when x_j steps one below its bound; 0 < d <= a_j lets the coefficient
// shrink by d (with b adjusted by d*u_j) without changing the integer
// feasible set. d > a_j means the row is entirely redundant, which the
// next activity pass removes.
func (w *pres) reduceCoefficients() {
	for i := range w.rows {
		r := &w.rows[i]
		if r.dead || r.phantom || r.rel == lp.EQ {
			continue
		}
		sign := 1.0
		if r.rel == lp.GE {
			sign = -1
		}
		// The row's activity is computed once, on its first candidate, and
		// again in full only after a reduction has changed a coefficient:
		// no incremental update, so every candidate sees exactly the
		// activity a fresh rowActivity would give it.
		var a activity
		stale := true
		for k := r.start; k < r.end; k++ {
			j := w.idx[k]
			if !w.live[j] || !w.isInt[j] || w.val[k] == 0 {
				continue
			}
			if stale {
				a, stale = w.rowActivity(r), false
			}
			v := w.val[k]
			aj := sign * v
			var d float64
			switch {
			case aj > 0 && !math.IsInf(w.hi[j], 1):
				rest := w.maxRest(a, v, j)
				if r.rel == lp.GE {
					rest = -w.minRest(a, v, j)
				}
				if math.IsInf(rest, 0) {
					continue
				}
				d = sign*r.rhs - rest - aj*(w.hi[j]-1)
				if d <= presolveEps || d > aj+presolveEps {
					continue
				}
				d = math.Min(d, aj)
				w.val[k] = sign * (aj - d)
				r.rhs = sign * (sign*r.rhs - d*w.hi[j])
			case aj < 0:
				rest := w.maxRest(a, v, j)
				if r.rel == lp.GE {
					rest = -w.minRest(a, v, j)
				}
				if math.IsInf(rest, 0) {
					continue
				}
				d = sign*r.rhs - rest - aj*(w.lo[j]+1)
				if d <= presolveEps || d > -aj+presolveEps {
					continue
				}
				d = math.Min(d, -aj)
				w.val[k] = sign * (aj + d)
				r.rhs = sign * (sign*r.rhs + d*w.lo[j])
			default:
				continue
			}
			stale = true
			w.changed = true
			w.stats.CoeffsReduced++
		}
	}
}

// dropEmptyRows removes rows whose live coefficients are all zero,
// checking consistency of the remaining constant. It returns true when
// an empty row is unsatisfiable.
func (w *pres) dropEmptyRows() bool {
	for i := range w.rows {
		r := &w.rows[i]
		if r.dead || r.phantom {
			continue
		}
		empty := true
		for k := r.start; k < r.end; k++ {
			if w.val[k] != 0 && w.live[w.idx[k]] {
				empty = false
				break
			}
		}
		if !empty {
			continue
		}
		switch r.rel {
		case lp.LE:
			if 0 > r.rhs+presolveFeasTol {
				return true
			}
		case lp.GE:
			if 0 < r.rhs-presolveFeasTol {
				return true
			}
		case lp.EQ:
			if math.Abs(r.rhs) > presolveFeasTol {
				return true
			}
		}
		r.dead = true
		w.stats.RowsRemoved++
	}
	return false
}

// build assembles the reduced problem and the postsolve map in w's
// output storage, and maps basis when one is given: each emitted row
// keeps its basic column when that column stays, and takes its own slack
// otherwise. The reduced bounds and rows are compacted in place over
// w.lo/hi and w.idx/val: a kept column or entry only ever moves to a
// lower position, past every one still to be read.
func (w *pres) build(p *Problem, basis []int32) *Reduced {
	n := p.LP.NumVars()
	w.fixedVal, w.isFixed, w.colOf = grow(w.fixedVal, n), grow(w.isFixed, n), grow(w.colOf, n)
	clear(w.fixedVal)
	clear(w.isFixed)
	keep := w.keep[:0]
	for j := 0; j < n; j++ {
		if w.live[j] {
			w.colOf[j] = int32(len(keep))
			keep = append(keep, j)
		} else {
			w.colOf[j] = -1
			w.isFixed[j] = true
			w.fixedVal[j] = w.lo[j]
		}
	}
	w.keep = keep
	nr := len(keep)
	rp := &w.rp
	rp.Integer = grow(rp.Integer, nr)
	rp.LP.Objective = grow(rp.LP.Objective, nr)
	for i, j := range keep {
		rp.Integer[i] = w.isInt[j]
		rp.LP.Objective[i] = w.obj[j]
		w.lo[i], w.hi[i] = w.lo[j], w.hi[j]
	}
	rp.LP.Lo, rp.LP.Hi = w.lo[:nr], w.hi[:nr]
	// Gather the emitted rows' live nonzeros, renumbered, at the front of
	// idx/val; colOf is increasing, so every row stays ascending.
	idx, val := w.idx[:0], w.val[:0]
	rp.LP.Constraints = slices.Grow(rp.LP.Constraints[:0], len(w.rows))
	var rbasis []int32
	if basis != nil {
		rbasis = grow(w.basis, len(w.rows))[:0]
	}
	for i := range w.rows {
		r := &w.rows[i]
		if r.dead || r.phantom {
			continue
		}
		if basis != nil {
			c := int32(-1)
			if i < len(basis) && basis[i] >= 0 && int(basis[i]) < n {
				c = w.colOf[basis[i]]
			}
			rbasis = append(rbasis, c)
		}
		s := len(idx)
		for k := r.start; k < r.end; k++ {
			if w.val[k] != 0 && w.live[w.idx[k]] {
				idx, val = append(idx, w.colOf[w.idx[k]]), append(val, w.val[k])
			}
		}
		e := len(idx)
		rp.LP.Constraints = append(rp.LP.Constraints, lp.Constraint{
			Idx: idx[s:e:e],
			Val: val[s:e:e],
			Rel: r.rel,
			RHS: r.rhs,
		})
	}
	if basis != nil {
		w.basis = rbasis
	}
	w.red = Reduced{
		P:         rp,
		Stats:     w.stats,
		ObjOffset: w.objOff,
		origN:     n,
		keep:      keep,
		basis:     rbasis,
		fixedVal:  w.fixedVal,
		isFixed:   w.isFixed,
	}
	return &w.red
}
