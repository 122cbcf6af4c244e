package core

import "fmt"

// CeilDiv returns ceil(a/b) for a >= 0, b > 0.
func CeilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// CostModel is a compiled view of a Problem used on hot paths: the n_jq
// matrix, throughputs and costs as flat slices. It is immutable after
// construction and safe for concurrent use.
type CostModel struct {
	J int // number of graphs
	Q int // number of types
	// N[j][q] = n_jq, number of tasks of type q in graph j. The rows
	// share one J×Q backing array; each is capped at Q entries.
	N [][]int
	// R[q] = r_q, per-machine throughput of type q.
	R []int
	// C[q] = c_q, hourly cost of type q.
	C []int64
	// UnitRate[j] = Σ_q n_jq·c_q/r_q: the asymptotic hourly cost of one
	// unit of throughput produced by graph j alone (no ceiling effects).
	UnitRate []float64
}

// NewCostModel compiles a problem. The problem must be valid.
func NewCostModel(p *Problem) *CostModel {
	m := &CostModel{J: p.NumGraphs(), Q: p.NumTypes()}
	m.N = make([][]int, m.J)
	counts := make([]int, m.J*m.Q)
	for j := range p.App.Graphs {
		row := counts[j*m.Q : (j+1)*m.Q : (j+1)*m.Q]
		p.App.Graphs[j].countTypes(row)
		m.N[j] = row
	}
	m.R = make([]int, m.Q)
	m.C = make([]int64, m.Q)
	for q, mt := range p.Platform.Machines {
		m.R[q] = mt.Throughput
		m.C[q] = int64(mt.Cost)
	}
	m.UnitRate = make([]float64, m.J)
	for j := 0; j < m.J; j++ {
		var rate float64
		for q := 0; q < m.Q; q++ {
			if m.N[j][q] > 0 {
				rate += float64(m.N[j][q]) * float64(m.C[q]) / float64(m.R[q])
			}
		}
		m.UnitRate[j] = rate
	}
	return m
}

// Demands fills demand[q] = Σ_j n_jq·ρ_j, the per-type task throughput the
// platform must sustain. demand must have length Q.
func (m *CostModel) Demands(rho []int, demand []int64) {
	for q := range demand {
		demand[q] = 0
	}
	for j, rj := range rho {
		if rj == 0 {
			continue
		}
		row := m.N[j]
		for q, n := range row {
			if n != 0 {
				demand[q] += int64(n) * int64(rj)
			}
		}
	}
}

// Machines returns x_q = ceil(demand_q / r_q) for the given graph
// throughputs (shared-type model, Section V-C).
func (m *CostModel) Machines(rho []int) []int {
	demand := make([]int64, m.Q)
	m.Demands(rho, demand)
	x := make([]int, m.Q)
	for q := 0; q < m.Q; q++ {
		x[q] = int(CeilDiv(demand[q], int64(m.R[q])))
	}
	return x
}

// Cost returns the hourly rental cost of the cheapest machine set able to
// sustain the given graph throughputs.
func (m *CostModel) Cost(rho []int) int64 {
	demand := make([]int64, m.Q)
	return m.CostInto(rho, demand)
}

// CostInto is Cost with a caller-provided scratch slice of length Q, for
// allocation-free evaluation inside heuristic loops.
func (m *CostModel) CostInto(rho []int, demand []int64) int64 {
	m.Demands(rho, demand)
	var total int64
	for q := 0; q < m.Q; q++ {
		total += CeilDiv(demand[q], int64(m.R[q])) * m.C[q]
	}
	return total
}

// SingleGraphCost returns C_j(ρ) = Σ_q ceil(n_jq·ρ/r_q)·c_q: the cost of
// running graph j alone at throughput rho (Section IV-A).
func (m *CostModel) SingleGraphCost(j, rho int) int64 {
	var total int64
	for q, n := range m.N[j] {
		if n > 0 {
			total += CeilDiv(int64(n)*int64(rho), int64(m.R[q])) * m.C[q]
		}
	}
	return total
}

// BestSingleGraph returns the graph whose solo cost at throughput rho is
// minimal, together with that cost. Ties break toward the lower index.
func (m *CostModel) BestSingleGraph(rho int) (j int, cost int64) {
	j = 0
	cost = m.SingleGraphCost(0, rho)
	for g := 1; g < m.J; g++ {
		if c := m.SingleGraphCost(g, rho); c < cost {
			j, cost = g, c
		}
	}
	return j, cost
}

// Allocation is a full solution: a throughput per graph, a machine count
// per type, and the resulting hourly cost.
type Allocation struct {
	GraphThroughput []int `json:"graph_throughput"`
	Machines        []int `json:"machines"`
	Cost            int64 `json:"cost"`
}

// TotalThroughput returns Σ_j ρ_j.
func (a Allocation) TotalThroughput() int {
	total := 0
	for _, r := range a.GraphThroughput {
		total += r
	}
	return total
}

// Clone returns a deep copy of the allocation.
func (a Allocation) Clone() Allocation {
	return Allocation{
		GraphThroughput: append([]int(nil), a.GraphThroughput...),
		Machines:        append([]int(nil), a.Machines...),
		Cost:            a.Cost,
	}
}

// NewAllocation builds the cheapest feasible allocation for the given
// graph throughputs: machine counts are the exact ceilings.
func (m *CostModel) NewAllocation(rho []int) Allocation {
	r := append([]int(nil), rho...)
	x := m.Machines(rho)
	var cost int64
	for q, n := range x {
		cost += int64(n) * m.C[q]
	}
	return Allocation{GraphThroughput: r, Machines: x, Cost: cost}
}

// CheckFeasible verifies that the allocation meets the target throughput
// and that the machine counts sustain the per-type demand (constraints (1)
// and (2) of the paper). It also recomputes the cost.
func (m *CostModel) CheckFeasible(a Allocation, target int) error {
	if len(a.GraphThroughput) != m.J {
		return fmt.Errorf("allocation has %d graph throughputs, want %d", len(a.GraphThroughput), m.J)
	}
	if len(a.Machines) != m.Q {
		return fmt.Errorf("allocation has %d machine counts, want %d", len(a.Machines), m.Q)
	}
	for j, r := range a.GraphThroughput {
		if r < 0 {
			return fmt.Errorf("graph %d has negative throughput %d", j, r)
		}
	}
	if got := a.TotalThroughput(); got < target {
		return fmt.Errorf("total throughput %d below target %d", got, target)
	}
	demand := make([]int64, m.Q)
	m.Demands(a.GraphThroughput, demand)
	var cost int64
	for q := 0; q < m.Q; q++ {
		if a.Machines[q] < 0 {
			return fmt.Errorf("type %d has negative machine count", q)
		}
		if int64(a.Machines[q])*int64(m.R[q]) < demand[q] {
			return fmt.Errorf("type %d: %d machines sustain %d < demand %d",
				q, a.Machines[q], int64(a.Machines[q])*int64(m.R[q]), demand[q])
		}
		cost += int64(a.Machines[q]) * m.C[q]
	}
	if cost != a.Cost {
		return fmt.Errorf("stored cost %d does not match machine cost %d", a.Cost, cost)
	}
	return nil
}
