package experiments

import (
	"fmt"
	"strings"

	"rentmin/internal/core"
	"rentmin/internal/heuristics"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// Table3Entry is one cell group of Table III: the chosen per-graph
// throughputs and the resulting platform cost.
type Table3Entry struct {
	Rho  []int
	Cost int64
}

// Table3Row is one line of Table III.
type Table3Row struct {
	Target  int
	Columns []Table3Entry // same order as Table3Names
}

// Table3Names lists the columns of Table III in paper order.
func Table3Names() []string {
	return []string{"ILP", "H1", "H2", "H31", "H32", "H32Jump"}
}

// RunTable3 reproduces the Section VII illustrating example: the
// three-recipe application of Figure 2 on the Table II platform, solved
// by the ILP and all heuristics for ρ = 10..200 step 10. Exchange moves
// use the paper's quantum of 10.
func RunTable3(seed uint64) ([]Table3Row, error) {
	problem := core.IllustratingExample()
	model := core.NewCostModel(problem)
	opts := &heuristics.Options{Iterations: 5000, Patience: 400, Delta: 10, Jumps: 40, JumpLength: 3}
	master := rng.New(seed)

	var rows []Table3Row
	for target := 10; target <= 200; target += 10 {
		row := Table3Row{Target: target}
		res, err := solve.ILP(model, target, nil)
		if err != nil {
			return nil, fmt.Errorf("table3 ILP at %d: %w", target, err)
		}
		if !res.Proven {
			return nil, fmt.Errorf("table3 ILP at %d not proven optimal", target)
		}
		row.Columns = append(row.Columns, Table3Entry{Rho: res.Alloc.GraphThroughput, Cost: res.Alloc.Cost})
		for ai, alg := range heuristics.All() {
			src := master.Sub(uint64(target), uint64(ai))
			a := alg.Run(model, target, opts, src)
			row.Columns = append(row.Columns, Table3Entry{Rho: a.GraphThroughput, Cost: a.Cost})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders the rows in the paper's layout: for each approach
// the split (ρ1, ρ2, ρ3) and the cost, optimal costs marked with '*'.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	names := Table3Names()
	fmt.Fprintf(&b, "%5s", "rho")
	for _, n := range names {
		fmt.Fprintf(&b, " | %-22s", n)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 5+len(names)*25))
	b.WriteString("\n")
	for _, row := range rows {
		opt := row.Columns[0].Cost
		fmt.Fprintf(&b, "%5d", row.Target)
		for _, e := range row.Columns {
			mark := " "
			if e.Cost == opt {
				mark = "*"
			}
			split := make([]string, len(e.Rho))
			for i, r := range e.Rho {
				split[i] = fmt.Sprintf("%d", r)
			}
			fmt.Fprintf(&b, " | %-14s %6d%s", strings.Join(split, ","), e.Cost, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}
