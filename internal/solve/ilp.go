package solve

import (
	"context"
	"fmt"
	"math"

	"rentmin/internal/core"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
)

// ILPOptions tunes the integer-program path for the general shared-type
// case (Section V-C). It is the one solver config: the public facade,
// the daemon and sessions set only WarmStart; the Disable*
// switches are set only by benchmarks and tests. Reliability branching,
// the H1 incumbent seed and the rounding repair are always on: the
// ablations in docs/ablation.md found that each pays. Integral-objective
// pruning is on because milp reads it off the model's integer prices.
// The context carries the rest: its deadline is the only wall-clock
// bound on the search (the paper's Fig. 8 stress test allows 100 s), and
// an obs.Trace in it observes the search.
type ILPOptions struct {
	// NodeLimit bounds explored nodes; zero means unlimited.
	NodeLimit int
	// WarmStart optionally seeds the search with per-graph throughputs,
	// and marks the solve as a re-solve: its root LP then starts from
	// the recipe model's structural optimal basis (see structuralBasis)
	// and runs no root cuts. When nil the solver seeds itself with the
	// best single-graph solution (H1) and its root solves cold.
	WarmStart []int
	// DisableCuts switches off Gomory root cuts (ablation).
	DisableCuts bool
	// DisablePresolve switches off the root presolve pass (bound
	// tightening, fixing, row/column elimination and coefficient
	// reduction — see milp.Options.Presolve).
	// Presolve is on by default: it shrinks the tree before the first
	// pivot runs and the reported cost is identical either way.
	DisablePresolve bool
	// Workers is ignored: the branch-and-bound search is sequential, and
	// cores are used by running many solves at once.
	//
	// Deprecated: it remains only so that callers which still set it
	// compile; it will be removed once none does.
	Workers int
	// DisableLPWarmStart forces a cold two-phase simplex solve at every
	// branch-and-bound node instead of the default dual-simplex
	// re-optimization from the parent basis (ablation; identical optimal
	// costs, more simplex pivots). Distinct from WarmStart, which seeds
	// the incumbent, not the per-node LP solves.
	DisableLPWarmStart bool
}

// ILPResult is the outcome of the integer-programming solve: milp's
// result (Bound is a proven lower bound on the optimal cost) plus the
// allocation it encodes.
type ILPResult struct {
	milp.Result
	Alloc core.Allocation
	// Proven is true when the allocation is proven optimal.
	Proven bool
}

// BuildMILP encodes Definition 1 with shared task types as the MIP of
// Section V-C. Variables are ordered [ρ_0..ρ_{J-1}, x_0..x_{Q-1}]:
//
//	minimize    Σ_q c_q·x_q
//	subject to  Σ_j ρ_j >= target
//	            r_q·x_q - Σ_j n_jq·ρ_j >= 0    for every type q
//	            ρ_j, x_q >= 0 integer
func BuildMILP(m *core.CostModel, target int) *milp.Problem {
	nv := m.J + m.Q
	p := &milp.Problem{Integer: make([]bool, nv)}
	for i := range p.Integer {
		p.Integer[i] = true
	}
	p.LP.Objective = make([]float64, nv)
	for q := 0; q < m.Q; q++ {
		p.LP.Objective[m.J+q] = float64(m.C[q])
	}
	// Every row is carved from one backing idx/val pair: the total row
	// holds every ρ_j, and type q's row the ρ_j of the recipes that use q
	// (n_jq != 0) plus x_q, each in ascending column order.
	nnz := m.J
	for j := 0; j < m.J; j++ {
		for q := 0; q < m.Q; q++ {
			if m.N[j][q] != 0 {
				nnz++
			}
		}
	}
	nnz += m.Q
	idx, val := make([]int32, 0, nnz), make([]float64, 0, nnz)
	p.LP.Constraints = make([]lp.Constraint, 0, 1+m.Q)
	row := func(rel lp.Relation, rhs float64, s int) {
		e := len(idx)
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Idx: idx[s:e:e], Val: val[s:e:e], Rel: rel, RHS: rhs})
	}
	for j := 0; j < m.J; j++ {
		idx, val = append(idx, int32(j)), append(val, 1)
	}
	row(lp.GE, float64(target), 0)
	for q := 0; q < m.Q; q++ {
		s := len(idx)
		for j := 0; j < m.J; j++ {
			if n := m.N[j][q]; n != 0 {
				idx, val = append(idx, int32(j)), append(val, -float64(n))
			}
		}
		idx, val = append(idx, int32(m.J+q)), append(val, float64(m.R[q]))
		row(lp.GE, 0, s)
	}
	return p
}

// RoundingRepair returns a milp.Rounder that turns a fractional relaxation
// point into a feasible integer point: graph throughputs are floored, the
// lost units are re-added by PadToTarget, and machine counts are
// recomputed as exact ceilings of the padded demand. The throughputs and
// the demand live in scratch the rounder reuses on every call, so it
// allocates only the point it returns, and it must not be called from two
// goroutines at once (a milp search calls it sequentially).
func RoundingRepair(m *core.CostModel, target int) milp.Rounder {
	rho := make([]int, m.J)
	demand := make([]int64, m.Q)
	return func(x []float64) ([]float64, bool) {
		for j := range rho {
			rho[j] = max(int(math.Floor(x[j]+1e-9)), 0)
		}
		PadToTarget(m, rho, target, demand)
		out := make([]float64, m.J+m.Q)
		for j, r := range rho {
			out[j] = float64(r)
		}
		for q, d := range demand {
			out[m.J+q] = float64(core.CeilDiv(d, int64(m.R[q])))
		}
		return out, true
	}
}

// PadToTarget raises the total throughput of rho to target in place, one
// unit at a time, each unit going to the first graph with the smallest
// marginal cost. rho must have one entry per graph of m, with at least
// one graph. demand is the caller's scratch of length m.Q; on return it
// holds the per-type demand of the padded rho (CostModel.Demands).
//
// The per-type demand is computed once and kept current: one more unit of
// graph j costs Σ_q c_q·(⌈(d_q+n_jq)/r_q⌉ − ⌈d_q/r_q⌉) over the types j
// uses, which is exactly the difference of the two full costs.
func PadToTarget(m *core.CostModel, rho []int, target int, demand []int64) {
	sum := 0
	for _, r := range rho {
		sum += r
	}
	m.Demands(rho, demand)
	for ; sum < target; sum++ {
		best, bestDelta := 0, int64(math.MaxInt64)
		for j := range rho {
			var d int64
			for q, n := range m.N[j] {
				if n != 0 {
					r := int64(m.R[q])
					d += m.C[q] * (core.CeilDiv(demand[q]+int64(n), r) - core.CeilDiv(demand[q], r))
				}
			}
			if d < bestDelta {
				best, bestDelta = j, d
			}
		}
		rho[best]++
		for q, n := range m.N[best] {
			demand[q] += int64(n)
		}
	}
}

// allocationToPoint encodes an allocation as a MILP variable vector.
func allocationToPoint(m *core.CostModel, a core.Allocation) []float64 {
	out := make([]float64, m.J+m.Q)
	for j, r := range a.GraphThroughput {
		out[j] = float64(r)
	}
	for q, n := range a.Machines {
		out[m.J+q] = float64(n)
	}
	return out
}

// structuralBasis names the optimal basis of BuildMILP's LP relaxation,
// one basic column per row: the total row holds ρ_{j*} of the recipe j*
// with the least UnitRate (the first on a tie), and type q's row holds
// x_q. The relaxation sends the whole target through j*, so every x_q is
// basic, at zero for a type j* does not use. The row duals are then
// UnitRate(j*) and c_q/r_q, so every other ρ_j prices at UnitRate(j) −
// UnitRate(j*) ≥ 0 and the basis is dual feasible: lp's warm path solves
// the root with 0 pivots.
func structuralBasis(m *core.CostModel) []int32 {
	best := 0
	for j, rate := range m.UnitRate {
		if rate < m.UnitRate[best] {
			best = j
		}
	}
	cols := make([]int32, 1+m.Q)
	cols[0] = int32(best)
	for q := 0; q < m.Q; q++ {
		cols[1+q] = int32(m.J + q)
	}
	return cols
}

// ILP solves the general shared-type problem exactly via branch and
// bound. ILPContext bounds the search with a context deadline.
func ILP(m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	return ILPContext(context.Background(), m, target, opts)
}

// rootCutRounds caps the Gomory rounds at the root of every ILP solve.
const rootCutRounds = 4

// ILPContext is ILP under a context: cancellation (or a context deadline)
// stops the branch-and-bound search between nodes and returns the best
// incumbent found so far with Proven == false. A search cancelled before
// any incumbent exists reports Status NoSolution with a nil allocation.
func ILPContext(ctx context.Context, m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	if opts == nil {
		opts = &ILPOptions{}
	}
	if target <= 0 {
		a := m.NewAllocation(make([]int, m.J))
		return ILPResult{Result: milp.Result{Status: milp.Optimal}, Alloc: a, Proven: true}, nil
	}
	prob := BuildMILP(m, target)

	mopts := &milp.Options{
		NodeLimit:     opts.NodeLimit,
		Rounder:       RoundingRepair(m, target),
		DisableWarmLP: opts.DisableLPWarmStart,
	}
	if !opts.DisableCuts {
		mopts.RootCutRounds = rootCutRounds
	}
	mopts.Presolve = !opts.DisablePresolve
	if opts.WarmStart != nil {
		if len(opts.WarmStart) != m.J {
			return ILPResult{}, fmt.Errorf("solve: warm start has %d throughputs, want %d", len(opts.WarmStart), m.J)
		}
		mopts.Incumbent = allocationToPoint(m, m.NewAllocation(opts.WarmStart))
		mopts.RootBasis = structuralBasis(m)
	} else {
		_, h1 := BestSingleGraph(m, target)
		mopts.Incumbent = allocationToPoint(m, h1)
	}

	res, err := milp.SolveContext(ctx, prob, mopts)
	if err != nil {
		return ILPResult{}, err
	}
	if math.IsInf(res.Bound, -1) {
		// Stopped before the root LP: every price and machine count is
		// non-negative, so no allocation costs less than 0.
		res.Bound = 0
		if res.Status == milp.Feasible {
			res.Gap = res.Objective / math.Max(1, res.Objective)
		}
	}
	out := ILPResult{Result: res, Proven: res.Status == milp.Optimal}
	if res.Status == milp.Optimal || res.Status == milp.Feasible {
		rho := make([]int, m.J)
		for j := 0; j < m.J; j++ {
			rho[j] = int(math.Round(res.X[j]))
		}
		out.Alloc = m.NewAllocation(rho)
	}
	return out, nil
}
