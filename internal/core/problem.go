package core

import "fmt"

// Application is the global application φ: a set of alternative recipe
// graphs that all produce the same result.
type Application struct {
	Name   string  `json:"name,omitempty"`
	Graphs []Graph `json:"graphs"`
}

// NumGraphs returns J.
func (a Application) NumGraphs() int { return len(a.Graphs) }

// Clone returns a deep copy of the application.
func (a Application) Clone() Application {
	c := Application{Name: a.Name, Graphs: make([]Graph, len(a.Graphs))}
	for i, g := range a.Graphs {
		c.Graphs[i] = g.Clone()
	}
	return c
}

// Problem is a full MinCost instance (Definition 1 of the paper): choose
// integer graph throughputs ρ_j with Σ ρ_j >= Target and machine counts
// x_q with x_q·r_q >= Σ_j n_jq·ρ_j, minimizing Σ_q x_q·c_q.
type Problem struct {
	App      Application `json:"application"`
	Platform Platform    `json:"platform"`
	// Target is ρ, the prescribed output throughput in data items per
	// time unit.
	Target int `json:"target_throughput"`
}

// NumGraphs returns J.
func (p *Problem) NumGraphs() int { return len(p.App.Graphs) }

// NumTasks returns the number of tasks across all graphs.
func (p *Problem) NumTasks() int {
	n := 0
	for _, g := range p.App.Graphs {
		n += len(g.Tasks)
	}
	return n
}

// NumTypes returns Q.
func (p *Problem) NumTypes() int { return p.Platform.NumTypes() }

// Validate checks the platform, every graph, and the target. Every
// graph's acyclicity check runs in one buffer, sized for the largest
// graph, so a valid problem costs one allocation.
func (p *Problem) Validate() error {
	if err := p.Platform.Validate(); err != nil {
		return err
	}
	if len(p.App.Graphs) == 0 {
		return fmt.Errorf("application %q: no graphs", p.App.Name)
	}
	size := 0
	for _, g := range p.App.Graphs {
		size = max(size, g.topoBufLen())
	}
	buf := make([]int, size)
	for j, g := range p.App.Graphs {
		if err := g.validate(p.NumTypes(), buf); err != nil {
			return fmt.Errorf("graph %d: %w", j, err)
		}
	}
	return p.ValidateTarget()
}

// ValidateTarget checks the target throughput alone. A problem whose
// platform and graphs already passed Validate, such as a parsed or cached
// document, needs only this check after its target is replaced.
func (p *Problem) ValidateTarget() error {
	if p.Target < 0 {
		return fmt.Errorf("negative target throughput %d", p.Target)
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	return &Problem{App: p.App.Clone(), Platform: p.Platform.Clone(), Target: p.Target}
}

// IllustratingExample returns the Section VII example of the paper:
// three two-task chain recipes over four machine types with
// r = (10,20,30,40) and c = (10,18,25,33). The target throughput is left
// at zero; set Target before solving.
func IllustratingExample() *Problem {
	return &Problem{
		App: Application{
			Name: "illustrating-example",
			Graphs: []Graph{
				NewChain("phi1", 1, 3), // types t2, t4 in the paper's 1-based notation
				NewChain("phi2", 2, 3), // t3, t4
				NewChain("phi3", 0, 1), // t1, t2
			},
		},
		Platform: Platform{
			Name: "table-II",
			Machines: []MachineType{
				{Name: "P1", Throughput: 10, Cost: 10},
				{Name: "P2", Throughput: 20, Cost: 18},
				{Name: "P3", Throughput: 30, Cost: 25},
				{Name: "P4", Throughput: 40, Cost: 33},
			},
		},
	}
}
