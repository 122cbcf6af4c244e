package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Relation is the sense of a linear constraint.
type Relation int8

// Constraint senses.
const (
	LE Relation = iota // A_i·x <= b_i
	GE                 // A_i·x >= b_i
	EQ                 // A_i·x == b_i
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Constraint is one sparse row A_i·x Rel b_i: A_i holds Val[k] in column
// Idx[k] and zero in every column Idx does not list. Idx is strictly
// ascending, and every consumer walks a row's entries in that order. A
// listed value may be zero; it counts as absent.
type Constraint struct {
	Idx []int32
	Val []float64
	Rel Relation
	RHS float64
}

// Dot returns A_i·x over the row's entries, in ascending column order.
func (c *Constraint) Dot(x []float64) float64 {
	s := 0.0
	for k, j := range c.Idx {
		s += c.Val[k] * x[j]
	}
	return s
}

// Problem is a linear program over n bounded variables. Variables default
// to the classic non-negative orthant lo = 0, hi = +inf; per-variable
// bounds replace that default when Lo/Hi are set.
type Problem struct {
	// Objective holds the cost vector c; the solver minimizes c·x.
	Objective []float64
	// Constraints holds the rows. Every column index a row lists must be
	// below len(Objective).
	Constraints []Constraint
	// Lo and Hi are optional per-variable bounds lo_j <= x_j <= hi_j.
	// Either slice may be nil (every variable takes the default for that
	// side: lo 0, hi +inf) or have exactly NumVars entries. Lower bounds
	// must be finite (they may be negative); upper bounds may be +inf.
	// A variable with Lo[j] == Hi[j] is fixed. Bounds are handled inside
	// the simplex ratio tests, not as constraint rows, so tightening a
	// bound never grows the basis (see SetBounds and the package doc).
	Lo, Hi []float64
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// LowerBound returns the effective lower bound of variable j (0 when Lo
// is unset).
func (p *Problem) LowerBound(j int) float64 { return boundAt(p.Lo, j, 0) }

// UpperBound returns the effective upper bound of variable j (+inf when
// Hi is unset).
func (p *Problem) UpperBound(j int) float64 { return boundAt(p.Hi, j, math.Inf(1)) }

// SetBounds installs lo <= x_j <= hi, materializing the Lo/Hi slices from
// the defaults on first use. It does not validate lo <= hi; Validate (and
// therefore Solve) rejects crossed bounds.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	n := p.NumVars()
	if p.Lo == nil {
		p.Lo = make([]float64, n)
	}
	if p.Hi == nil {
		p.Hi = make([]float64, n)
		for k := range p.Hi {
			p.Hi[k] = math.Inf(1)
		}
	}
	p.Lo[j], p.Hi[j] = lo, hi
}

// Validate checks dimensional consistency, finiteness, bound order, that
// every row's column indices are in range and strictly ascending, and that
// every constraint has a known Relation.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("lp: no variables")
	}
	for _, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("lp: non-finite objective coefficient")
		}
	}
	if err := validateBounds(p.Lo, p.Hi, n); err != nil {
		return err
	}
	for i, c := range p.Constraints {
		if len(c.Idx) != len(c.Val) {
			return fmt.Errorf("lp: constraint %d has %d column indices for %d values", i, len(c.Idx), len(c.Val))
		}
		if c.Rel != LE && c.Rel != GE && c.Rel != EQ {
			return fmt.Errorf("lp: constraint %d has unknown relation %v", i, c.Rel)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite RHS", i)
		}
		for k, j := range c.Idx {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("lp: constraint %d has column index %d outside [0, %d)", i, j, n)
			}
			if k > 0 && j <= c.Idx[k-1] {
				return fmt.Errorf("lp: constraint %d has column index %d after %d; indices must be strictly ascending", i, j, c.Idx[k-1])
			}
			if v := c.Val[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient", i)
			}
		}
	}
	return nil
}

// validateBounds checks optional bound slices for n variables: each is
// nil or has n entries, lower bounds are finite, upper bounds are not NaN
// or -inf, and no pair is crossed.
func validateBounds(lo, hi []float64, n int) error {
	if lo != nil && len(lo) != n {
		return fmt.Errorf("lp: %d lower bounds for %d variables", len(lo), n)
	}
	if hi != nil && len(hi) != n {
		return fmt.Errorf("lp: %d upper bounds for %d variables", len(hi), n)
	}
	for j := 0; j < n; j++ {
		l, h := boundAt(lo, j, 0), boundAt(hi, j, math.Inf(1))
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, l)
		}
		if math.IsNaN(h) || math.IsInf(h, -1) {
			return fmt.Errorf("lp: variable %d has invalid upper bound %g", j, h)
		}
		if l > h {
			return fmt.Errorf("lp: variable %d has crossed bounds [%g, %g]", j, l, h)
		}
	}
	return nil
}

// boundAt returns bounds[j], or def when the slice is nil.
func boundAt(bounds []float64, j int, def float64) float64 {
	if bounds == nil {
		return def
	}
	return bounds[j]
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{Objective: append([]float64(nil), p.Objective...)}
	if p.Lo != nil {
		q.Lo = append([]float64(nil), p.Lo...)
	}
	if p.Hi != nil {
		q.Hi = append([]float64(nil), p.Hi...)
	}
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		q.Constraints[i] = Constraint{Idx: slices.Clone(c.Idx), Val: slices.Clone(c.Val), Rel: c.Rel, RHS: c.RHS}
	}
	return q
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration cap was hit before optimality.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve. X, Duals and Basis are meaningful
// only when Status is Optimal.
//
// Solve, SolveFrom and SolveGomory return a result they allocated, which
// the caller owns. Model.SolveFrom, the path of every branch-and-bound LP
// after the root's cuts and of a root that runs none, instead writes into
// a result the caller hands it and reuses that result's buffers: X and
// Duals share one, Basis and its lists are the others, and each is
// reallocated only when it is too short for the model. Such a result is
// valid until the next solve into it; a copy of the struct shares its
// buffers. A solve that ends
// without an optimum leaves X, Duals and Basis as the last optimal solve
// into the result left them (nil in a result never solved optimally).
type Solution struct {
	Status     Status
	X          []float64 // structural variable values
	Objective  float64   // c·X (0 when Status is not Optimal)
	Iterations int       // total simplex pivots across both phases
	// Duals holds one multiplier per constraint: the shadow price of the
	// constraint's right-hand side. With the minimization convention used
	// here, duals of binding GE rows are >= 0, duals of binding LE rows
	// are <= 0, and equality rows are unrestricted. For default-bound
	// problems b·Duals == Objective at optimality (strong duality); with
	// finite variable bounds the bound multipliers (the reduced costs of
	// variables resting at a bound) contribute the remainder. Rows proven
	// redundant report 0.
	Duals []float64
	// Basis is an opaque snapshot of the optimal basis, restorable on a
	// related problem via SolveFrom or Model.Restore.
	Basis *Basis
	// Warm reports that this solution came from the warm-started
	// dual-simplex path of SolveFrom or Model.SolveFrom; false means a
	// cold two-phase solve produced it (including calls that fell back).
	Warm bool

	// buf is the storage X and Duals share; a solve into this result
	// again reuses it (see solution).
	buf []float64
}

// end records a solve that stopped without an optimum: its status, the
// pivots it spent and whether the warm path ended it. X, Duals and Basis
// are left as they are.
func (sol *Solution) end(st Status, iters int, warm bool) {
	sol.Status, sol.Objective, sol.Iterations, sol.Warm = st, 0, iters, warm
}

// Options is ignored: the solver runs one way, with one tolerance (tol)
// and a pivot cap sized from the problem (see load).
//
// Deprecated: it remains only so that callers which still pass one to
// Solve or SolveGomory compile; it will be removed once none does.
type Options struct{}
