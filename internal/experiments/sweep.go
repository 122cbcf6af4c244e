package experiments

import (
	"context"
	"fmt"
	"time"

	"rentmin"
	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
	"rentmin/internal/pool"
	"rentmin/internal/rng"
)

// ilpName labels the exact solver column in reports.
const ilpName = "ILP"

// cell is one (algorithm, configuration, target) measurement.
type cell struct {
	cost    int64
	seconds float64
	proven  bool // ILP only
}

// AlgoResult aggregates one algorithm across the sweep, indexed by target.
type AlgoResult struct {
	Name string
	// MeanNormalized[t] is the mean over configurations of
	// ILP_cost/algo_cost — the quantity of Figures 3, 6 and 7 (1.0 for
	// the ILP itself; below 1.0 when the heuristic is more expensive).
	MeanNormalized []float64
	// BestCount[t] counts configurations where the algorithm attains the
	// minimum cost over all algorithms — Figure 4.
	BestCount []int
	// MeanSeconds[t] is the mean wall-clock solve time — Figures 5 and 8.
	MeanSeconds []float64
}

// SweepResult is a full campaign outcome.
type SweepResult struct {
	Setting Setting
	Targets []int
	// Algos holds the ILP first, then the heuristics in paper order.
	Algos []AlgoResult
	// ILPProven[t] counts configurations whose ILP solve was proven
	// optimal within the time limit (all of them when no limit is hit).
	ILPProven []int
}

// RunSweep executes the campaign: Configs random (application, cloud)
// instances × Targets × (ILP + heuristics). Configurations run in
// parallel on an internal/pool.Pool; every algorithm draws its
// randomness from a sub-stream of (Seed, config, target, algo), so
// results are independent of the worker schedule.
func RunSweep(s Setting) (*SweepResult, error) {
	return RunSweepContext(context.Background(), s)
}

// RunSweepContext is RunSweep under a context: cancellation stops
// configurations that have not started and aborts in-flight ILP solves
// mid-search (a remote-backed Setting.SolverPool additionally aborts
// queued and in-flight remote dispatches).
func RunSweepContext(ctx context.Context, s Setting) (*SweepResult, error) {
	if s.Configs <= 0 {
		return nil, fmt.Errorf("experiments: %s: no configurations", s.Name)
	}
	if len(s.Targets) == 0 {
		return nil, fmt.Errorf("experiments: %s: no targets", s.Name)
	}
	algos := heuristics.All()
	if s.IncludeH0 {
		algos = heuristics.WithH0()
	}
	names := make([]string, 0, len(algos)+1)
	names = append(names, ilpName)
	for _, a := range algos {
		names = append(names, a.Name)
	}

	// grid[algo][target][config]
	grid := make([][][]cell, len(names))
	for a := range grid {
		grid[a] = make([][]cell, len(s.Targets))
		for t := range grid[a] {
			grid[a][t] = make([]cell, s.Configs)
		}
	}

	master := rng.New(s.Seed)
	workers := s.Workers
	if workers == 0 && s.SolverPool != nil {
		// Fan configurations out to the solver pool's own capacity: a
		// remote fleet may hold far more solves in flight than this
		// machine has cores.
		workers = s.SolverPool.Workers()
	}
	if workers > s.Configs {
		workers = s.Configs
	}
	var p pool.Pool = pool.New(workers) // 0 = GOMAXPROCS
	defer p.Close()
	err := p.RunContext(ctx, s.Configs, func(ctx context.Context, c int) error {
		if err := runConfig(ctx, s, algos, master, c, grid); err != nil {
			return fmt.Errorf("experiments: %s config %d: %w", s.Name, c, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return aggregate(s, names, grid), nil
}

// runConfig generates one random instance and fills its grid column.
func runConfig(ctx context.Context, s Setting, algos []heuristics.Algorithm, master *rng.Source, c int, grid [][][]cell) error {
	problem, err := graphgen.Generate(s.Gen, master.Sub('c', uint64(c)))
	if err != nil {
		return err
	}
	model := core.NewCostModel(problem)
	for ti, target := range s.Targets {
		start := time.Now()
		ilp, err := s.exactSolve(ctx, problem, target)
		if err != nil {
			return fmt.Errorf("ILP at target %d: %w", target, err)
		}
		grid[0][ti][c] = cell{
			cost:    ilp.Alloc.Cost,
			seconds: time.Since(start).Seconds(),
			proven:  ilp.Proven,
		}
		for ai, alg := range algos {
			src := master.Sub('h', uint64(c), uint64(ti), uint64(ai))
			hs := time.Now()
			alloc := alg.Run(model, target, &s.Heuristics, src)
			grid[ai+1][ti][c] = cell{cost: alloc.Cost, seconds: time.Since(hs).Seconds()}
			if err := model.CheckFeasible(alloc, target); err != nil {
				return fmt.Errorf("%s at target %d: %w", alg.Name, target, err)
			}
		}
	}
	return nil
}

// exactSolve runs the sweep's exact (ILP) solve for one (instance,
// target) cell through rentmin.SolveContext, or through
// Setting.SolverPool — which may dispatch it to a remote rentmind
// worker — when one is configured. Both backends produce identical costs.
func (s Setting) exactSolve(ctx context.Context, problem *core.Problem, target int) (rentmin.Solution, error) {
	p := *problem // shallow copy: only the target differs per cell
	p.Target = target
	solveContext := rentmin.SolveContext
	if s.SolverPool != nil {
		solveContext = s.SolverPool.SolveContext
	}
	return solveContext(ctx, &p, &rentmin.SolveOptions{TimeLimit: s.ILPTimeLimit})
}

// aggregate folds the raw grid into the figures' quantities.
func aggregate(s Setting, names []string, grid [][][]cell) *SweepResult {
	nt := len(s.Targets)
	out := &SweepResult{Setting: s, Targets: s.Targets, ILPProven: make([]int, nt)}
	for _, name := range names {
		out.Algos = append(out.Algos, AlgoResult{
			Name:           name,
			MeanNormalized: make([]float64, nt),
			BestCount:      make([]int, nt),
			MeanSeconds:    make([]float64, nt),
		})
	}
	for ti := 0; ti < nt; ti++ {
		for c := 0; c < s.Configs; c++ {
			ilpCost := grid[0][ti][c].cost
			if grid[0][ti][c].proven {
				out.ILPProven[ti]++
			}
			best := ilpCost
			for a := range names {
				if cost := grid[a][ti][c].cost; cost < best {
					best = cost
				}
			}
			for a := range names {
				cl := grid[a][ti][c]
				if cl.cost > 0 {
					out.Algos[a].MeanNormalized[ti] += float64(ilpCost) / float64(cl.cost)
				} else {
					out.Algos[a].MeanNormalized[ti] += 1 // zero-cost corner (target 0)
				}
				if cl.cost == best {
					out.Algos[a].BestCount[ti]++
				}
				out.Algos[a].MeanSeconds[ti] += cl.seconds
			}
		}
		for a := range names {
			out.Algos[a].MeanNormalized[ti] /= float64(s.Configs)
			out.Algos[a].MeanSeconds[ti] /= float64(s.Configs)
		}
	}
	return out
}

// Algo returns the named aggregate, or nil.
func (r *SweepResult) Algo(name string) *AlgoResult {
	for i := range r.Algos {
		if r.Algos[i].Name == name {
			return &r.Algos[i]
		}
	}
	return nil
}
