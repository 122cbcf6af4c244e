// Package solve implements the exact algorithms of the paper:
//
//   - Section IV-A: single-graph closed form;
//   - Section IV-B: several independent applications with fixed
//     per-application throughputs;
//   - Section V-A: black-box applications via a covering-knapsack dynamic
//     program;
//   - Section V-B: applications without shared task types via the
//     pseudo-polynomial dynamic program C(ρ, j);
//   - Section V-C: the general shared-type case as an integer linear
//     program solved by the branch-and-bound solver in package milp;
//   - a brute-force composition enumerator used as a test oracle.
package solve

import (
	"errors"
	"fmt"
	"math"

	"rentmin/internal/core"
)

// ErrSharedTypes is returned by algorithms whose preconditions forbid
// graphs from sharing task types.
var ErrSharedTypes = errors.New("solve: graphs share task types")

// ErrNotBlackBox is returned by BlackBoxDP when a graph has more than one
// task or two graphs use the same type.
var ErrNotBlackBox = errors.New("solve: application is not in black-box form")

// SingleGraph returns the optimal allocation when only graph j may be used
// (Section IV-A): x_q = ceil(n_jq·ρ/r_q).
func SingleGraph(m *core.CostModel, j, target int) core.Allocation {
	rho := make([]int, m.J)
	rho[j] = target
	return m.NewAllocation(rho)
}

// BestSingleGraph returns the cheapest single-graph allocation over all
// graphs — the H1 heuristic's solution (Section VI-b).
func BestSingleGraph(m *core.CostModel, target int) (int, core.Allocation) {
	j, _ := m.BestSingleGraph(target)
	return j, SingleGraph(m, j, target)
}

// IndependentApps solves Section IV-B: every graph is an independent
// application with its own prescribed throughput targets[j]; graphs may
// share machine types. The optimal machine counts are the per-type
// ceilings.
func IndependentApps(m *core.CostModel, targets []int) (core.Allocation, error) {
	if len(targets) != m.J {
		return core.Allocation{}, fmt.Errorf("solve: %d targets for %d graphs", len(targets), m.J)
	}
	for j, t := range targets {
		if t < 0 {
			return core.Allocation{}, fmt.Errorf("solve: negative target %d for graph %d", t, j)
		}
	}
	return m.NewAllocation(targets), nil
}

// SharesTypes reports whether any two graphs use a common task type.
func SharesTypes(m *core.CostModel) bool {
	for q := 0; q < m.Q; q++ {
		users := 0
		for j := 0; j < m.J; j++ {
			if m.N[j][q] > 0 {
				users++
				if users > 1 {
					return true
				}
			}
		}
	}
	return false
}

// IsBlackBox reports whether every graph consists of a single task and no
// two graphs share a type (Section V-A preconditions).
func IsBlackBox(m *core.CostModel) bool {
	for j := 0; j < m.J; j++ {
		total := 0
		for _, n := range m.N[j] {
			total += n
		}
		if total != 1 {
			return false
		}
	}
	return !SharesTypes(m)
}

const inf = math.MaxInt64 / 4

// BlackBoxDP solves the black-box case of Section V-A: each graph is a
// single task of a private type, so the problem is the covering knapsack
//
//	minimize Σ_q x_q·c_q   subject to Σ_q x_q·r_q >= ρ,
//
// solved by the classic O(Q·ρ) dynamic program the paper refers to.
func BlackBoxDP(m *core.CostModel, target int) (core.Allocation, error) {
	if !IsBlackBox(m) {
		return core.Allocation{}, ErrNotBlackBox
	}
	// typeOf[j] is the single type used by graph j.
	typeOf := make([]int, m.J)
	for j := 0; j < m.J; j++ {
		for q, n := range m.N[j] {
			if n > 0 {
				typeOf[j] = q
			}
		}
	}
	// best[t] = min cost to cover throughput t; choice[t] = graph used.
	best := make([]int64, target+1)
	choice := make([]int, target+1)
	for t := 1; t <= target; t++ {
		best[t] = inf
		choice[t] = -1
		for j := 0; j < m.J; j++ {
			q := typeOf[j]
			rest := t - m.R[q]
			if rest < 0 {
				rest = 0
			}
			if best[rest] >= inf {
				continue
			}
			if c := best[rest] + m.C[q]; c < best[t] {
				best[t] = c
				choice[t] = j
			}
		}
		if choice[t] < 0 {
			return core.Allocation{}, fmt.Errorf("solve: throughput %d unreachable", t)
		}
	}
	rho := make([]int, m.J)
	for t := target; t > 0; {
		j := choice[t]
		q := typeOf[j]
		rho[j] += m.R[q]
		t -= m.R[q]
		if t < 0 {
			t = 0
		}
	}
	return m.NewAllocation(rho), nil
}

// NoSharedDP solves Section V-B: graphs produce the same result and do not
// share task types, so the target splits across graphs via the dynamic
// program
//
//	C(t, j) = min_{0<=s<=t} C(t-s, j-1) + solo_j(s),
//
// where solo_j(s) = Σ_q c_q·⌈n_jq·s/r_q⌉ is the Section IV-A closed form:
// the ceiling is taken once per machine type over all n_jq tasks of that
// type, never per task. Runs in O(J·ρ²) plus the O(J·ρ·Q) solo-cost
// precomputation.
func NoSharedDP(m *core.CostModel, target int) (core.Allocation, error) {
	if SharesTypes(m) {
		return core.Allocation{}, ErrSharedTypes
	}
	// solo[j][s] = cost of graph j alone at throughput s.
	solo := make([][]int64, m.J)
	for j := range solo {
		solo[j] = make([]int64, target+1)
		for s := 0; s <= target; s++ {
			solo[j][s] = m.SingleGraphCost(j, s)
		}
	}
	// cur[t] = C(t, j); choice[j][t] = throughput given to graph j.
	prev := make([]int64, target+1)
	cur := make([]int64, target+1)
	choice := make([][]int32, m.J)
	for t := 0; t <= target; t++ {
		prev[t] = inf
	}
	prev[0] = 0
	for j := 0; j < m.J; j++ {
		choice[j] = make([]int32, target+1)
		for t := 0; t <= target; t++ {
			bestCost, bestS := int64(inf), int32(-1)
			for s := 0; s <= t; s++ {
				if prev[t-s] >= inf {
					continue
				}
				if c := prev[t-s] + solo[j][s]; c < bestCost {
					bestCost, bestS = c, int32(s)
				}
			}
			cur[t] = bestCost
			choice[j][t] = bestS
		}
		prev, cur = cur, prev
	}
	rho := make([]int, m.J)
	t := target
	for j := m.J - 1; j >= 0; j-- {
		s := int(choice[j][t])
		if s < 0 {
			return core.Allocation{}, fmt.Errorf("solve: no DP solution at throughput %d", target)
		}
		rho[j] = s
		t -= s
	}
	if t != 0 {
		return core.Allocation{}, fmt.Errorf("solve: DP reconstruction left %d uncovered", t)
	}
	return m.NewAllocation(rho), nil
}

// BruteForce enumerates every composition of the target into per-graph
// throughputs and returns the cheapest allocation. Exponential in J; it is
// the test oracle for small instances. An optimal solution always exists
// with Σ ρ_j == target because the cost is monotone in every ρ_j.
func BruteForce(m *core.CostModel, target int) core.Allocation {
	rho := make([]int, m.J)
	best := make([]int, m.J)
	bestCost := int64(math.MaxInt64)
	demand := make([]int64, m.Q)
	var rec func(j, remaining int)
	rec = func(j, remaining int) {
		if j == m.J-1 {
			rho[j] = remaining
			if c := m.CostInto(rho, demand); c < bestCost {
				bestCost = c
				copy(best, rho)
			}
			rho[j] = 0
			return
		}
		for s := 0; s <= remaining; s++ {
			rho[j] = s
			rec(j+1, remaining-s)
		}
		rho[j] = 0
	}
	if m.J == 0 {
		return core.Allocation{}
	}
	rec(0, target)
	return m.NewAllocation(best)
}
