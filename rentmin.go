// Package rentmin is a Go implementation of the scheduling system from
// "Minimizing Rental Cost for Multiple Recipe Applications in the Cloud"
// (Hanna, Marchal, Nicod, Philippe, Rehn-Sonigo, Sabbah — IPDPS Workshops
// 2016).
//
// A streaming application can be computed by any of several alternative
// recipe graphs (DAGs of typed tasks). A cloud offers one machine type per
// task type with an hourly price c_q and a per-machine throughput r_q.
// rentmin decides how to split a target output throughput ρ across the
// recipes and how many machines of each type to rent so that the hourly
// rental cost is minimal.
//
// # Quick start
//
//	problem := rentmin.IllustratingExample() // Section VII of the paper
//	problem.Target = 70
//	sol, err := rentmin.Solve(problem, nil)  // exact (branch and bound)
//	if err != nil { ... }
//	fmt.Println(sol.Alloc.Cost)              // 124
//
// Heuristics from the paper (H1, H2, H31, H32, H32Jump) are available via
// Heuristic, and special problem shapes have dedicated exact solvers
// (SolveBlackBox, SolveNoShared). The stream subpackage-backed Simulate
// validates that an allocation really sustains the target throughput on a
// discrete-event model of the machine pools.
//
// # Concurrency
//
// Solve runs one sequential branch-and-bound search, so a solve is a
// pure function of its problem and options. Cores are used by running
// many solves at once: for many independent instances — serving
// concurrent solve requests, or sweeping experiment grids — use
// SolveBatch, or keep a long-lived SolverPool and push each batch through
// it:
//
//	pool := rentmin.NewSolverPool(0)
//	defer pool.Close()
//	sols, err := pool.SolveBatch(problems, nil)
//
// Every solve entry point has a Context variant (SolveContext,
// SolveBatchContext), and the context is the only way to bound a solve:
// cancelling it — a client disconnect, or a deadline set with
// context.WithTimeout — stops the branch-and-bound search between nodes
// and returns the best allocation found so far with Proven == false.
// cmd/rentmind serves these entry points over
// HTTP with admission control and a bounded work queue; see
// internal/server and the typed client in rentmin/client.
//
// The repository-level tour lives in README.md; ARCHITECTURE.md maps the
// layers underneath this facade (core → lp → milp → solve → rentmin →
// server/client) and the invariants each one enforces.
package rentmin

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
	"rentmin/internal/milp"
	"rentmin/internal/pool"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
	"rentmin/internal/stream"
)

// Re-exported model types. See internal/core for full documentation.
type (
	// Task is one node of a recipe graph.
	Task = core.Task
	// Edge is a precedence constraint between tasks of one graph.
	Edge = core.Edge
	// Graph is one recipe (a DAG of typed tasks).
	Graph = core.Graph
	// MachineType is one cloud instance type (throughput and price).
	MachineType = core.MachineType
	// Platform is the set of machine types.
	Platform = core.Platform
	// Application is a set of alternative recipes for the same result.
	Application = core.Application
	// Problem is a full MinCost instance: application, platform, target.
	Problem = core.Problem
	// Allocation is a solution: per-graph throughputs, machine counts, cost.
	Allocation = core.Allocation
	// CostModel is the compiled cost evaluator of a problem.
	CostModel = core.CostModel
	// GenConfig parameterizes random instance generation (Section VIII-A).
	GenConfig = graphgen.Config
	// HeuristicOptions tunes the Section VI heuristics.
	HeuristicOptions = heuristics.Options
	// SimConfig parameterizes the stream execution simulator.
	SimConfig = stream.Config
	// SimMetrics reports the simulator's measurements.
	SimMetrics = stream.Metrics
	// Outage takes a machine offline for a while in the simulator
	// (e.g. a spot-instance revocation).
	Outage = stream.Outage
)

// NewChain builds a linear recipe whose i-th task has the i-th type.
func NewChain(name string, types ...int) Graph { return core.NewChain(name, types...) }

// NewCostModel compiles a validated problem for repeated cost evaluation.
func NewCostModel(p *Problem) *CostModel { return core.NewCostModel(p) }

// IllustratingExample returns the Section VII example (Figure 2 recipes on
// the Table II platform). Set Target before solving.
func IllustratingExample() *Problem { return core.IllustratingExample() }

// Generate draws a random problem instance per Section VIII-A.
func Generate(cfg GenConfig, seed uint64) (*Problem, error) {
	return graphgen.Generate(cfg, rng.New(seed))
}

// LoadProblem reads and validates a problem from a JSON file.
func LoadProblem(path string) (*Problem, error) { return core.LoadProblemFile(path) }

// SaveProblem writes a problem to a JSON file.
func SaveProblem(path string, p *Problem) error { return core.SaveProblemFile(path, p) }

// ReadProblem decodes and validates a problem from JSON.
func ReadProblem(r io.Reader) (*Problem, error) { return core.ReadProblem(r) }

// WriteProblem encodes a problem as indented JSON.
func WriteProblem(w io.Writer, p *Problem) error { return core.WriteProblem(w, p) }

// SolveOptions tunes the exact solver. It has no time limit: bound a
// solve with a context deadline (SolveContext).
type SolveOptions struct {
	// WarmStart optionally seeds the search with per-graph throughputs.
	// A warm-started solve is a re-solve: its root LP starts from the
	// recipe model's structural optimal basis and runs no root cuts. It
	// applies to Solve only; SolveBatch ignores it (problems in a batch
	// generally have different shapes).
	WarmStart []int
	// Workers is the number of problems SolveBatch solves concurrently
	// (0 = GOMAXPROCS). Solve ignores it: each search is sequential.
	Workers int
}

// SearchStats counts a solve's search effort: branch-and-bound nodes,
// LP relaxations and simplex pivots (hardware-independent measures of
// solver work), root cuts and presolve reductions. See milp.SearchStats.
type SearchStats = milp.SearchStats

// PresolveStats counts the reductions the root presolve pass applied
// before branch and bound. See milp.PresolveStats.
type PresolveStats = milp.PresolveStats

// Solution is the outcome of the exact solver.
type Solution struct {
	Alloc Allocation
	// Proven indicates the allocation is proven optimal.
	Proven bool
	// Bound is the proven lower bound on the optimal cost.
	Bound float64
	SearchStats
	// Elapsed is the solver wall-clock time.
	Elapsed time.Duration
	// Worker is the endpoint of the remote worker that produced this
	// solution when it was dispatched through a SolverPool; "" for
	// in-process solves. Stamped by the coordinator-side dispatcher,
	// not transmitted over the wire.
	Worker string
}

// Solve computes a minimum-cost allocation for the problem's Target using
// the integer-programming path (general shared-type case, Section V-C).
func Solve(p *Problem, opts *SolveOptions) (Solution, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext is Solve under a context. Cancelling the context — a
// client disconnect, or a per-request deadline via context.WithTimeout —
// stops the branch-and-bound search between nodes and returns the best
// allocation found so far with Proven == false. If the search is cancelled before any feasible allocation exists,
// the returned error wraps ctx.Err().
func SolveContext(ctx context.Context, p *Problem, opts *SolveOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	m := core.NewCostModel(p)
	var iopts solve.ILPOptions
	if opts != nil {
		iopts.WarmStart = opts.WarmStart
	}
	res, err := solve.ILPContext(ctx, m, p.Target, &iopts)
	if err != nil {
		return Solution{}, err
	}
	if res.Alloc.GraphThroughput == nil {
		// Only a limit-stopped search (NoSolution) is attributable to the
		// cancellation; a proven Infeasible must be reported as such — no
		// retry with a longer deadline can ever succeed there.
		if cerr := ctx.Err(); cerr != nil && res.Status == milp.NoSolution {
			return Solution{}, fmt.Errorf("rentmin: solve cancelled before any feasible allocation was found: %w", cerr)
		}
		return Solution{}, fmt.Errorf("rentmin: no feasible allocation found (status %v)", res.Status)
	}
	return Solution{
		Alloc:       res.Alloc,
		Proven:      res.Proven,
		Bound:       res.Bound,
		SearchStats: res.SearchStats,
		Elapsed:     res.Elapsed,
	}, nil
}

// SolverPool solves batches of problems with bounded concurrency. It
// dispatches each solve to a member of a fleet: one in-process member
// for NewSolverPool, rentmind worker daemons for NewElasticSolverPool
// (remote.go), with per-member capacity caps, fault re-dispatch and
// deterministic result ordering. Batch semantics, cancellation and
// partial results are identical either way:
//
//	pool := rentmin.NewSolverPool(0) // GOMAXPROCS concurrent solves
//	defer pool.Close()
//	for batch := range requests {
//		sols, err := pool.SolveBatch(batch, nil)
//		...
//	}
//
// The pool holds no goroutines between calls: each call starts one
// goroutine per dispatched solve, and every one has finished its solve
// before the call returns.
type SolverPool struct {
	// pool's member table holds the fleet's transports, health and RTT
	// windows.
	pool *pool.Pool[RemoteWorker]
}

// NewSolverPool builds a pool that solves up to workers problems
// concurrently in process (0 = GOMAXPROCS). It is a fleet of one
// member with an empty name, so Solution.Worker stays "": WorkerStats
// reports that member, and AddRemoteWorker adds remote members beside
// it as on any pool.
func NewSolverPool(workers int) *SolverPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spec := pool.RemoteSpec[RemoteWorker]{Capacity: workers, Worker: inProcess{workers}}
	return &SolverPool{pool: pool.New([]pool.RemoteSpec[RemoteWorker]{spec}, pool.RemoteConfig{})}
}

// inProcess is the member of an in-process SolverPool: it solves on the
// goroutine the dispatcher gives it.
type inProcess struct{ capacity int }

func (inProcess) Name() string                            { return "" }
func (w inProcess) Capacity(context.Context) (int, error) { return w.capacity, nil }
func (inProcess) Solve(ctx context.Context, p *Problem) (Solution, error) {
	return SolveContext(ctx, p, nil)
}

// Workers returns the pool's concurrency: the fleet's total capacity.
func (p *SolverPool) Workers() int { return p.pool.Workers() }

// Close is a no-op kept for callers that pair a pool with a deferred
// Close: the pool holds no goroutines between calls, and remote
// workers are owned by whoever created their transports.
func (p *SolverPool) Close() {}

// SolveContext solves one problem on the pool: it waits for a free
// seat — abandoning the wait when ctx is done — and then solves prob on
// the assigned member under ctx. opts is ignored, as in the batch
// methods; a remote worker receives the problem alone, and ctx's
// deadline is its budget.
func (p *SolverPool) SolveContext(ctx context.Context, prob *Problem, opts *SolveOptions) (Solution, error) {
	var sol Solution
	err := p.pool.RunContext(ctx, 1, func(ctx context.Context, w RemoteWorker, _ int) error {
		var err error
		sol, err = dispatch(ctx, w, prob)
		return err
	})
	return sol, err
}

// SolveBatch solves every problem at its own Target on the pool and
// returns the solutions in input order. opts is ignored: WarmStart does
// not apply to a batch, and the pool's size is fixed. On failure the error of the lowest-index failing problem is returned.
func (p *SolverPool) SolveBatch(problems []*Problem, opts *SolveOptions) ([]Solution, error) {
	out, err := p.SolveBatchContext(context.Background(), problems, opts)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolveBatchContext is SolveBatch under a context. Cancellation stops the
// whole fan-out promptly instead of letting it finish: problems not yet
// handed to a worker are never started, and in-flight solves stop
// mid-search, keeping their best-so-far allocation (Proven == false).
// Unlike SolveBatch it returns partial results on error: the solutions
// slice always has one entry per problem, and entries that never produced
// an allocation are zero-valued (Alloc.GraphThroughput == nil). The error
// is the lowest-index solve failure (which wraps ctx.Err() for a solve
// cancelled before any feasible point existed), or ctx.Err() when
// cancellation left problems unstarted. A cancellation that lands after
// every problem was started and merely stopped in-flight searches early
// is NOT an error: every entry then holds its best-so-far allocation and callers must inspect
// Solution.Proven to distinguish proven optima from truncated searches.
func (p *SolverPool) SolveBatchContext(ctx context.Context, problems []*Problem, opts *SolveOptions) ([]Solution, error) {
	out := make([]Solution, len(problems))
	err := p.pool.RunContext(ctx, len(problems), func(ctx context.Context, w RemoteWorker, i int) error {
		sol, err := dispatch(ctx, w, problems[i])
		if err != nil {
			return fmt.Errorf("rentmin: batch problem %d: %w", i, err)
		}
		out[i] = sol
		return nil
	})
	return out, err
}

// SolveBatch solves many problems concurrently on a transient pool of
// opts.Workers workers (0 = GOMAXPROCS) and returns the solutions in
// input order. For repeated batches, keep a SolverPool instead.
func SolveBatch(problems []*Problem, opts *SolveOptions) ([]Solution, error) {
	out, err := SolveBatchContext(context.Background(), problems, opts)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolveBatchContext is SolveBatch under a context; see
// SolverPool.SolveBatchContext for the cancellation and partial-result
// semantics.
func SolveBatchContext(ctx context.Context, problems []*Problem, opts *SolveOptions) ([]Solution, error) {
	workers := 0
	if opts != nil {
		workers = opts.Workers
	}
	return NewSolverPool(workers).SolveBatchContext(ctx, problems, opts)
}

// SolveBlackBox solves the Section V-A special case (each recipe is a
// single task of a private type) with the covering-knapsack DP.
func SolveBlackBox(p *Problem) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	return solve.BlackBoxDP(core.NewCostModel(p), p.Target)
}

// SolveNoShared solves the Section V-B special case (recipes do not share
// task types) with the pseudo-polynomial dynamic program.
func SolveNoShared(p *Problem) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	return solve.NoSharedDP(core.NewCostModel(p), p.Target)
}

// SolveIndependent solves Section IV-B: every recipe is an independent
// application with its own prescribed throughput.
func SolveIndependent(p *Problem, targets []int) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	return solve.IndependentApps(core.NewCostModel(p), targets)
}

// HeuristicName selects one of the paper's Section VI heuristics.
type HeuristicName string

// The heuristics of Section VI.
const (
	HeuristicH0      HeuristicName = "H0"
	HeuristicH1      HeuristicName = "H1"
	HeuristicH2      HeuristicName = "H2"
	HeuristicH31     HeuristicName = "H31"
	HeuristicH32     HeuristicName = "H32"
	HeuristicH32Jump HeuristicName = "H32Jump"
)

// Heuristic runs the named heuristic on the problem's Target. seed drives
// the stochastic heuristics (H0, H2, H31, H32Jump) and is ignored by the
// deterministic ones.
func Heuristic(p *Problem, name HeuristicName, opts *HeuristicOptions, seed uint64) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	m := core.NewCostModel(p)
	src := rng.New(seed)
	switch name {
	case HeuristicH0:
		return heuristics.H0(m, p.Target, src), nil
	case HeuristicH1:
		return heuristics.H1(m, p.Target), nil
	case HeuristicH2:
		return heuristics.H2(m, p.Target, opts, src), nil
	case HeuristicH31:
		return heuristics.H31(m, p.Target, opts, src), nil
	case HeuristicH32:
		return heuristics.H32(m, p.Target, opts), nil
	case HeuristicH32Jump:
		return heuristics.H32Jump(m, p.Target, opts, src), nil
	}
	return Allocation{}, fmt.Errorf("rentmin: unknown heuristic %q", name)
}

// Simulate runs the discrete-event stream simulator on an allocation.
// seed drives arrival jitter; it is ignored when cfg.ArrivalJitter == 0.
func Simulate(cfg SimConfig, seed uint64) (SimMetrics, error) {
	return stream.Simulate(cfg, rng.New(seed))
}
