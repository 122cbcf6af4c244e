// Package experiments reproduces the evaluation section of the paper: the
// illustrating example of Table III and the simulation campaigns behind
// Figures 3–8. Each figure is described by a Setting (the generation
// parameters quoted in Section VIII), executed as a sweep over target
// throughputs × random configurations, and aggregated into the quantities
// the paper plots: cost normalized to the ILP optimum, the number of runs
// in which each algorithm attains the best cost, and wall-clock time.
package experiments

import (
	"time"

	"rentmin"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
)

// Setting describes one experimental campaign.
type Setting struct {
	// Name identifies the experiment (fig3, fig6, ...).
	Name string
	// Description is a human-readable summary printed in reports.
	Description string
	// Gen holds the instance-generation parameters of Section VIII-A.
	Gen graphgen.Config
	// Configs is the number of random (application, cloud) configurations
	// (the paper runs 100 per setting).
	Configs int
	// Targets is the sweep of target throughputs ρ.
	Targets []int
	// Heuristics tunes the Section VI heuristics.
	Heuristics heuristics.Options
	// ILPTimeLimit bounds each ILP solve (the paper's Fig. 8 uses 100 s).
	// Zero means unlimited.
	ILPTimeLimit time.Duration
	// IncludeH0 adds the H0 random baseline, which the paper defines but
	// omits from its result tables.
	IncludeH0 bool
	// Seed makes the campaign reproducible.
	Seed uint64
	// Workers bounds parallelism across configurations; 0 uses
	// GOMAXPROCS, 1 gives the most faithful per-algorithm timings.
	Workers int
	// SolverPool, when non-nil, routes every exact (ILP) solve of the
	// sweep through the given pool instead of calling the solver stack
	// directly. The sweep code is identical for every backend: a local
	// pool reproduces the in-process path, while a remote-backed pool
	// (rentmin/client.NewFleet over rentmind worker daemons) shards the
	// sweep's exact solves across processes or machines — the heuristics
	// and instance generation always run in-process, since they are
	// orders of magnitude cheaper than the ILP column they are compared
	// against. The caller owns the pool (RunSweep does not close it).
	// Costs — and therefore every figure quantity except wall-clock
	// timings — are identical across backends.
	SolverPool *rentmin.SolverPool
}

// TargetRange returns {lo, lo+step, ..., hi}.
func TargetRange(lo, hi, step int) []int {
	var ts []int
	for t := lo; t <= hi; t += step {
		ts = append(ts, t)
	}
	return ts
}

// paperTargets is the sweep used throughout Section VIII ("from 20 to 200
// with a step size of 10").
func paperTargets() []int { return TargetRange(20, 200, 10) }

// paperHeuristics mirrors the sweep granularity: exchanges move quanta of
// 10 throughput units, as in Table III.
func paperHeuristics() heuristics.Options {
	return heuristics.Options{Iterations: 2000, Patience: 200, Delta: 10, Jumps: 20, JumpLength: 3}
}

// Fig3Setting reproduces Figures 3, 4 and 5: small application graphs.
// "20 alternative graphs per application, each graph contains between 5
// and 8 tasks, 50% mutation, 5 machine types costing 1..100 with
// throughput 10..100."
func Fig3Setting() Setting {
	return Setting{
		Name:        "fig3",
		Description: "small graphs: 20 alternatives, 5-8 tasks, 50% mutation, Q=5",
		Gen: graphgen.Config{
			NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5,
			NumTypes: 5, CostMin: 1, CostMax: 100,
			ThroughputMin: 10, ThroughputMax: 100,
		},
		Configs:    100,
		Targets:    paperTargets(),
		Heuristics: paperHeuristics(),
		Seed:       0xF193,
	}
}

// Fig6Setting reproduces Figure 6: medium application graphs.
// "20 alternatives, 10-20 tasks, 30% mutation, 8 machine types costing
// 1..100 with throughput 10..100."
func Fig6Setting() Setting {
	return Setting{
		Name:        "fig6",
		Description: "medium graphs: 20 alternatives, 10-20 tasks, 30% mutation, Q=8",
		Gen: graphgen.Config{
			NumGraphs: 20, MinTasks: 10, MaxTasks: 20, MutatePercent: 0.3,
			NumTypes: 8, CostMin: 1, CostMax: 100,
			ThroughputMin: 10, ThroughputMax: 100,
		},
		Configs:    100,
		Targets:    paperTargets(),
		Heuristics: paperHeuristics(),
		Seed:       0xF196,
	}
}

// Fig7Setting reproduces Figure 7: large application graphs.
// "20 alternatives, 50-100 tasks, 50% mutation, 8 machine types costing
// 1..100 with throughput 10..50."
func Fig7Setting() Setting {
	return Setting{
		Name:        "fig7",
		Description: "large graphs: 20 alternatives, 50-100 tasks, 50% mutation, Q=8",
		Gen: graphgen.Config{
			NumGraphs: 20, MinTasks: 50, MaxTasks: 100, MutatePercent: 0.5,
			NumTypes: 8, CostMin: 1, CostMax: 100,
			ThroughputMin: 10, ThroughputMax: 50,
		},
		Configs:    100,
		Targets:    paperTargets(),
		Heuristics: paperHeuristics(),
		Seed:       0xF197,
	}
}

// Fig8Setting reproduces Figure 8: the ILP stress test. "10 alternative
// graphs of 100-200 tasks, 30% mutation, 50 machine types costing 1..100
// with throughput 5..25, ILP search time limited to 100 s." The default
// time limit here is scaled down; pass the paper's value explicitly to
// reproduce the original budget.
func Fig8Setting(ilpLimit time.Duration) Setting {
	if ilpLimit == 0 {
		ilpLimit = 2 * time.Second
	}
	return Setting{
		Name:        "fig8",
		Description: "ILP stress: 10 alternatives, 100-200 tasks, 30% mutation, Q=50, time-limited ILP",
		Gen: graphgen.Config{
			NumGraphs: 10, MinTasks: 100, MaxTasks: 200, MutatePercent: 0.3,
			NumTypes: 50, CostMin: 1, CostMax: 100,
			ThroughputMin: 5, ThroughputMax: 25,
		},
		Configs:      100,
		Targets:      paperTargets(),
		Heuristics:   paperHeuristics(),
		ILPTimeLimit: ilpLimit,
		Seed:         0xF198,
		Workers:      1, // timing figure
	}
}

// AsymptoteSetting probes the paper's Section VIII-F claim that the naive
// best-single-graph heuristic H1 becomes asymptotically optimal as the
// target throughput grows: the Fig. 3 generation parameters swept over
// doubling targets far beyond the paper's range. This is an extension
// experiment, not a paper figure.
func AsymptoteSetting() Setting {
	return Setting{
		Name:        "asymptote",
		Description: "H1 asymptotic optimality: fig3 instances, doubling targets",
		Gen:         Fig3Setting().Gen,
		Configs:     50,
		Targets:     []int{25, 50, 100, 200, 400, 800, 1600},
		Heuristics:  paperHeuristics(),
		Seed:        0xA511,
	}
}

// Scaled returns a copy of the setting shrunk for fast regression runs:
// fewer configurations and a sparser target sweep.
func (s Setting) Scaled(configs int, targets []int) Setting {
	out := s
	out.Configs = configs
	out.Targets = targets
	return out
}
