package solve

import (
	"context"
	"fmt"
	"math"
	"time"

	"rentmin/internal/core"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
)

// ILPOptions tunes the integer-program path for the general shared-type
// case (Section V-C). It is the one solver config: the public facade,
// the daemon and sessions set only TimeLimit, WarmStart and RootBasis
// (the search is observed through an obs.Trace in the context); the
// Disable* ablation switches are set only by benchmarks and tests.
type ILPOptions struct {
	// TimeLimit bounds the branch-and-bound wall clock (the paper uses
	// 100 s in its Fig. 8 stress test). Zero means unlimited.
	TimeLimit time.Duration
	// NodeLimit bounds explored nodes; zero means unlimited.
	NodeLimit int
	// WarmStart optionally seeds the search with per-graph throughputs.
	// When nil the solver seeds itself with the best single-graph
	// solution (H1) unless DisableWarmStart is set.
	WarmStart []int
	// DisableWarmStart switches off self-seeding (ablation).
	DisableWarmStart bool
	// DisableRounding switches off the per-node rounding repair (ablation).
	DisableRounding bool
	// DisableIntegralPruning switches off integral-objective bound
	// rounding (ablation).
	DisableIntegralPruning bool
	// DisableCuts switches off Gomory root cuts (ablation).
	DisableCuts bool
	// DisablePresolve switches off the root presolve pass (bound
	// tightening, fixing, row/column elimination, coefficient reduction
	// and the CG rounding cut round it enables — see milp.Options.Presolve).
	// Presolve is on by default: it shrinks the tree before the first
	// pivot runs and the reported cost is identical either way.
	DisablePresolve bool
	// DisableStrongBranch switches reliability branching off and falls
	// back to most-fractional branching (ablation).
	DisableStrongBranch bool
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
	// RootBasis warm-starts the root relaxation from a prior solve's
	// ILPResult.RootBasis (online re-optimization; see milp.Options.RootBasis).
	// A snapshot that no longer fits the mutated problem falls back to a
	// cold root solve transparently.
	RootBasis *lp.Basis
}

// ILPResult is the outcome of the integer-programming solve.
type ILPResult struct {
	Alloc core.Allocation
	// Proven is true when the allocation is proven optimal.
	Proven  bool
	Status  milp.Status
	Bound   float64 // proven lower bound on the optimal cost
	Elapsed time.Duration
	Gap     float64
	milp.SearchStats
	// RootBasis is the root relaxation's optimal basis, reusable as
	// ILPOptions.RootBasis by a later re-solve of a mutated problem (nil
	// when no root LP ran — e.g. presolve finished the solve outright).
	RootBasis *lp.Basis
	// RootLPWarm reports whether the root LP actually restored the
	// caller-supplied RootBasis instead of solving cold.
	RootLPWarm bool
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
	total := make([]float64, nv)
	for j := 0; j < m.J; j++ {
		total[j] = 1
	}
	p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: total, Rel: lp.GE, RHS: float64(target)})
	for q := 0; q < m.Q; q++ {
		row := make([]float64, nv)
		for j := 0; j < m.J; j++ {
			row[j] = -float64(m.N[j][q])
		}
		row[m.J+q] = float64(m.R[q])
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 0})
	}
	return p
}

// RoundingRepair returns a milp.Rounder that turns a fractional relaxation
// point into a feasible integer point: graph throughputs are floored, the
// lost units are re-added by PadToTarget, and machine counts are
// recomputed as exact ceilings.
func RoundingRepair(m *core.CostModel, target int) milp.Rounder {
	return func(x []float64) ([]float64, bool) {
		rho := make([]int, m.J)
		for j := 0; j < m.J; j++ {
			rho[j] = max(int(math.Floor(x[j]+1e-9)), 0)
		}
		PadToTarget(m, rho, target)
		a := m.NewAllocation(rho)
		out := make([]float64, m.J+m.Q)
		for j, r := range rho {
			out[j] = float64(r)
		}
		for q, n := range a.Machines {
			out[m.J+q] = float64(n)
		}
		return out, true
	}
}

// PadToTarget raises the total throughput of rho to target in place, one
// unit at a time, each unit going to the first graph with the smallest
// marginal cost. rho must have one entry per graph of m, with at least
// one graph.
func PadToTarget(m *core.CostModel, rho []int, target int) {
	sum := 0
	for _, r := range rho {
		sum += r
	}
	demand := make([]int64, m.Q)
	for ; sum < target; sum++ {
		base := m.CostInto(rho, demand)
		best, bestDelta := 0, int64(math.MaxInt64)
		for j := range rho {
			rho[j]++
			if d := m.CostInto(rho, demand) - base; d < bestDelta {
				best, bestDelta = j, d
			}
			rho[j]--
		}
		rho[best]++
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

// ILP solves the general shared-type problem exactly (or best-effort under
// a time limit) via branch and bound.
func ILP(m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	return ILPContext(context.Background(), m, target, opts)
}

// ILPContext is ILP under a context: cancellation (or a context deadline)
// stops the branch-and-bound search between nodes and returns the best
// incumbent found so far with Proven == false, exactly like a TimeLimit
// stop. A search cancelled before any incumbent exists reports Status
// NoSolution with a nil allocation.
func ILPContext(ctx context.Context, m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	if opts == nil {
		opts = &ILPOptions{}
	}
	if target <= 0 {
		a := m.NewAllocation(make([]int, m.J))
		return ILPResult{Alloc: a, Proven: true, Status: milp.Optimal}, nil
	}
	prob := BuildMILP(m, target)

	mopts := &milp.Options{
		TimeLimit:         opts.TimeLimit,
		NodeLimit:         opts.NodeLimit,
		IntegralObjective: !opts.DisableIntegralPruning,
		DisableWarmLP:     opts.DisableLPWarmStart,
	}
	if !opts.DisableStrongBranch {
		mopts.StrongBranch = 8
	}
	if !opts.DisableCuts {
		mopts.RootCutRounds = 4
	}
	if !opts.DisableRounding {
		mopts.Rounder = RoundingRepair(m, target)
	}
	mopts.Presolve = !opts.DisablePresolve
	mopts.RootBasis = opts.RootBasis
	switch {
	case opts.WarmStart != nil:
		if len(opts.WarmStart) != m.J {
			return ILPResult{}, fmt.Errorf("solve: warm start has %d throughputs, want %d", len(opts.WarmStart), m.J)
		}
		mopts.Incumbent = allocationToPoint(m, m.NewAllocation(opts.WarmStart))
	case !opts.DisableWarmStart:
		_, h1 := BestSingleGraph(m, target)
		mopts.Incumbent = allocationToPoint(m, h1)
	}

	res, err := milp.SolveContext(ctx, prob, mopts)
	if err != nil {
		return ILPResult{}, err
	}
	out := ILPResult{
		Status:      res.Status,
		Bound:       res.Bound,
		Elapsed:     res.Elapsed,
		Gap:         res.Gap,
		Proven:      res.Status == milp.Optimal,
		SearchStats: res.SearchStats,
		RootBasis:   res.RootBasis,
		RootLPWarm:  res.RootLPWarm,
	}
	if res.Status == milp.Optimal || res.Status == milp.Feasible {
		rho := make([]int, m.J)
		for j := 0; j < m.J; j++ {
			rho[j] = int(math.Round(res.X[j]))
		}
		out.Alloc = m.NewAllocation(rho)
	}
	return out, nil
}
