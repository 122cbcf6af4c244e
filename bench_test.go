// Benchmarks regenerating every table and figure of the paper's
// evaluation (scaled to benchmark-friendly sizes; cmd/experiments runs the
// full-scale campaigns), plus ablation benches for the design choices
// called out in DESIGN.md §5 and micro-benchmarks of the hot substrates.
//
//	go test -bench=. -benchmem
package rentmin_test

import (
	"context"
	"math"
	"testing"
	"time"

	"rentmin"
	"rentmin/internal/core"
	"rentmin/internal/experiments"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
	"rentmin/internal/lp"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
	"rentmin/internal/stream"
)

// --- Table III -------------------------------------------------------------

// BenchmarkTable3 regenerates the full illustrating-example table: exact
// ILP plus all five heuristics for ρ = 10..200 step 10.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(7); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep runs a scaled-down campaign for one paper setting.
func benchSweep(b *testing.B, s experiments.Setting, configs int, targets []int) {
	b.Helper()
	s = s.Scaled(configs, targets)
	s.Heuristics.Iterations = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 3-8 -------------------------------------------------------------

// BenchmarkFig3SmallGraphs is the Figure 3 campaign (normalized cost,
// small graphs) at bench scale.
func BenchmarkFig3SmallGraphs(b *testing.B) {
	benchSweep(b, experiments.Fig3Setting(), 2, []int{40, 120, 200})
}

// BenchmarkFig4BestCounts exercises the Figure 4 aggregation (best-cost
// counts) on the same small-graph setting.
func BenchmarkFig4BestCounts(b *testing.B) {
	s := experiments.Fig3Setting().Scaled(3, []int{100})
	s.Heuristics.Iterations = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Algo("ILP").BestCount[0] != s.Configs {
			b.Fatal("ILP not always best at bench scale")
		}
	}
}

// BenchmarkFig5Timing exercises the Figure 5 timing aggregation: serial
// workers for faithful per-algorithm times.
func BenchmarkFig5Timing(b *testing.B) {
	s := experiments.Fig3Setting().Scaled(2, []int{100})
	s.Workers = 1
	s.Heuristics.Iterations = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6MediumGraphs is the Figure 6 campaign (medium graphs).
func BenchmarkFig6MediumGraphs(b *testing.B) {
	benchSweep(b, experiments.Fig6Setting(), 2, []int{100})
}

// BenchmarkFig7LargeGraphs is the Figure 7 campaign (large graphs).
func BenchmarkFig7LargeGraphs(b *testing.B) {
	benchSweep(b, experiments.Fig7Setting(), 1, []int{100})
}

// BenchmarkFig8ILPTimeLimit is the Figure 8 stress: a huge instance with a
// deliberately tight ILP budget, measuring the time-limited path.
func BenchmarkFig8ILPTimeLimit(b *testing.B) {
	s := experiments.Fig8Setting(250*time.Millisecond).Scaled(1, []int{120})
	s.Heuristics.Iterations = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

// fig3Instance returns one representative small-graph instance.
func fig3Instance(b *testing.B) *core.CostModel {
	b.Helper()
	p, err := graphgen.Generate(experiments.Fig3Setting().Gen, rng.New(0xF193).Sub('c', 2))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewCostModel(p)
}

// benchILPVariant measures one solver variant under a fixed budget and
// reports the fraction of proven-optimal solves; a variant that cannot
// prove within the budget pins ns/op to the budget with proven/op 0.
// The budget is sized so every variant proves on this instance and the
// ablation shows up as wall-clock spread: the slowest variant,
// most-fractional branching (NoStrongBranch), proves in ~3 s on a 2-core
// Xeon — about 400x the full solver — so the 10 s budget leaves it ~3x
// headroom.
func benchILPVariant(b *testing.B, opts solve.ILPOptions) {
	b.Helper()
	m := fig3Instance(b)
	opts.TimeLimit = 10 * time.Second
	proven := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve.ILP(m, 100, &opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Proven {
			proven++
		}
	}
	b.ReportMetric(float64(proven)/float64(b.N), "proven/op")
}

func BenchmarkAblationILPFull(b *testing.B) { benchILPVariant(b, solve.ILPOptions{}) }

func BenchmarkAblationILPNoWarmStart(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableWarmStart: true})
}

func BenchmarkAblationILPNoRounding(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableRounding: true})
}

func BenchmarkAblationILPNoIntegralPruning(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableIntegralPruning: true})
}

func BenchmarkAblationILPNoCuts(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableCuts: true})
}

func BenchmarkAblationILPNoStrongBranch(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableStrongBranch: true})
}

func BenchmarkAblationILPNoLPWarmStart(b *testing.B) {
	benchILPVariant(b, solve.ILPOptions{DisableLPWarmStart: true})
}

// BenchmarkAblationDelta compares H32Jump exchange granularities.
func BenchmarkAblationDelta1(b *testing.B)  { benchDelta(b, 1) }
func BenchmarkAblationDelta10(b *testing.B) { benchDelta(b, 10) }

func benchDelta(b *testing.B, delta int) {
	b.Helper()
	m := fig3Instance(b)
	opts := &heuristics.Options{Delta: delta}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.H32Jump(m, 150, opts, rng.New(uint64(i)))
	}
}

// BenchmarkAblationDPvsILP compares the Section V-B dynamic program with
// the general ILP on a no-shared-types instance.
func BenchmarkAblationDP(b *testing.B) {
	m := noSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.NoSharedDP(m, 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationILPOnNoShared(b *testing.B) {
	m := noSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.ILP(m, 150, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func noSharedModel(b *testing.B) *core.CostModel {
	b.Helper()
	p := &core.Problem{
		App: core.Application{Graphs: []core.Graph{
			core.NewChain("a", 0, 1, 0),
			core.NewChain("b", 2, 3),
			core.NewChain("c", 4, 5, 4),
		}},
		Platform: core.Platform{Machines: []core.MachineType{
			{Throughput: 10, Cost: 10}, {Throughput: 20, Cost: 18},
			{Throughput: 30, Cost: 25}, {Throughput: 40, Cost: 33},
			{Throughput: 15, Cost: 12}, {Throughput: 25, Cost: 21},
		}},
	}
	return core.NewCostModel(p)
}

// --- Exact solve of a large instance -----------------------------------------

// fig7Instance returns one Figure-7-scale instance (20 alternatives of
// 50-100 tasks): large enough that the branch-and-bound tree keeps a
// frontier of nodes and probes unreliable candidates for a while.
func fig7Instance(b *testing.B) *core.CostModel {
	b.Helper()
	p, err := graphgen.Generate(experiments.Fig7Setting().Gen, rng.New(0xF197).Sub('c', 1))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewCostModel(p)
}

// BenchmarkExactILPSequential measures one exact solve of the large
// instance. The search is sequential; the name predates that and is kept
// for BENCH_baseline.json.
func BenchmarkExactILPSequential(b *testing.B) {
	m := fig7Instance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve.ILP(m, 150, nil)
		if err != nil || !res.Proven {
			b.Fatalf("ILP failed: %v %+v", err, res)
		}
	}
}

// batchInstances builds a batch of Fig3-scale problems with a spread of
// targets, the shape of a service-side solve burst.
func batchInstances(b *testing.B) []*rentmin.Problem {
	b.Helper()
	gen := experiments.Fig3Setting().Gen
	var ps []*rentmin.Problem
	for i := 0; i < 8; i++ {
		p, err := rentmin.Generate(gen, uint64(0xBA7C+i))
		if err != nil {
			b.Fatal(err)
		}
		p.Target = 60 + 20*i
		ps = append(ps, p)
	}
	return ps
}

// BenchmarkSolveBatchSequential solves the batch one problem at a time —
// the baseline a caller without SolveBatch would write.
func BenchmarkSolveBatchSequential(b *testing.B) {
	problems := batchInstances(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			if _, err := rentmin.Solve(p, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolveBatchPooled pushes the same batch through a reusable
// SolverPool, the intended serving path.
func BenchmarkSolveBatchPooled(b *testing.B) {
	problems := batchInstances(b)
	pool := rentmin.NewSolverPool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.SolveBatch(problems, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Dual-simplex LP warm starts ---------------------------------------------

// fig8Instance returns one Figure-8-scale instance (10 alternatives of
// 100-200 tasks over 50 machine types): the scale where per-node LP
// re-solves dominate the exact solver, i.e. exactly what the dual-simplex
// warm start targets.
func fig8Instance(b *testing.B) *core.CostModel {
	b.Helper()
	p, err := graphgen.Generate(experiments.Fig8Setting(0).Gen, rng.New(0xF198).Sub('c', 3))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewCostModel(p)
}

// benchILPFig8 runs the Fig. 8-scale exact solve (proven optimal within
// the node budget) and reports total simplex pivots — a hardware-
// independent work measure. CI tracks the warm/cold pair: the warm run
// must stay well below the cold one (≥1.5× fewer iterations).
func benchILPFig8(b *testing.B, coldLP bool) {
	b.Helper()
	m := fig8Instance(b)
	iters, nodes := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve.ILP(m, 120, &solve.ILPOptions{NodeLimit: 150, DisableLPWarmStart: coldLP})
		if err != nil || !res.Proven {
			b.Fatalf("ILP failed: %v %+v", err, res)
		}
		iters += res.LPIterations
		nodes += res.Nodes
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkILPWarmStart is the headline warm-start bench: every child LP
// re-optimizes from its parent's basis.
func BenchmarkILPWarmStart(b *testing.B) { benchILPFig8(b, false) }

// BenchmarkILPColdStart is the same search with warm starts disabled
// (every node pays a full two-phase solve) — the ratio against
// BenchmarkILPWarmStart is the tentpole speedup.
func BenchmarkILPColdStart(b *testing.B) { benchILPFig8(b, true) }

// --- Bounded-variable branching dive -----------------------------------------

// BenchmarkILPBoundedDive replays one deterministic branching dive on the
// Fig. 8-scale root LP — cap the most fractional variable at its floor (or
// raise it to its ceiling when the down child is infeasible), re-optimize
// from the parent basis, repeat — with the accumulated branching bounds
// patched into the variables' [lo, hi], the scheme the solver uses: the
// basis stays m×m for the whole dive and the dual simplex starts
// immediately. simplex-iters/op is the warm re-solve cost of a dive; CI
// gates it via BENCH_baseline.json.
func BenchmarkILPBoundedDive(b *testing.B) {
	m := fig8Instance(b)
	prob := solve.BuildMILP(m, 120)
	base := &prob.LP
	root, err := lp.Solve(base, nil)
	if err != nil || root.Status != lp.Optimal || root.Basis == nil {
		b.Fatalf("root LP not warm-startable: %v (status %v)", err, root.Status)
	}

	// Precompute the dive (outside the timed region, in bounded mode):
	// branch on the most fractional variable of each relaxation, flooring
	// it when the down child is feasible and ceiling it otherwise — the
	// path a depth-first branch-and-bound dive would take.
	type step struct {
		j  int
		up bool // false: x_j <= floor; true: x_j >= ceil
		v  float64
	}
	var steps []step
	boundedProb := func(upto int) *lp.Problem {
		q := &lp.Problem{Objective: base.Objective, Constraints: base.Constraints}
		for _, st := range steps[:upto] {
			lo, hi := q.LowerBound(st.j), q.UpperBound(st.j)
			if st.up {
				lo = math.Max(lo, st.v)
			} else {
				hi = math.Min(hi, st.v)
			}
			q.SetBounds(st.j, lo, hi)
		}
		return q
	}
	cur := root
	const maxDepth = 40
	for len(steps) < maxDepth {
		bestJ, bestF := -1, 1e-6
		for j, v := range cur.X {
			f := v - math.Floor(v)
			if f > 0.5 {
				f = 1 - f
			}
			if f > bestF {
				bestJ, bestF = j, f
			}
		}
		if bestJ < 0 {
			break // integral relaxation: the dive bottomed out
		}
		advanced := false
		for _, up := range []bool{false, true} {
			v := math.Floor(cur.X[bestJ])
			if up {
				v = math.Ceil(cur.X[bestJ])
			}
			steps = append(steps, step{bestJ, up, v})
			q := boundedProb(len(steps))
			if q.LowerBound(bestJ) > q.UpperBound(bestJ) {
				steps = steps[:len(steps)-1]
				continue
			}
			sol, err := lp.SolveFrom(q, cur.Basis, nil)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != lp.Optimal || sol.Basis == nil {
				steps = steps[:len(steps)-1]
				continue
			}
			cur, advanced = sol, true
			break
		}
		if !advanced {
			break // both children infeasible: the dive bottomed out
		}
	}
	if len(steps) < 4 {
		b.Fatalf("dive too shallow (%d steps) to be representative", len(steps))
	}

	b.ReportAllocs()
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent := root
		for d := 1; d <= len(steps); d++ {
			sol, err := lp.SolveFrom(boundedProb(d), parent.Basis, nil)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != lp.Optimal || sol.Basis == nil {
				b.Fatalf("depth %d: status %v", d, sol.Status)
			}
			iters += sol.Iterations
			parent = sol
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
	b.ReportMetric(float64(len(steps)), "dive-depth")
}

// --- The pivot kernel on the reference instances ----------------------------

// largeSparseInstance generates the large sparse reference instance: 120
// recipe alternatives of 1-3 tasks each over 200 machine types. The MILP
// relaxation has ~200 rows × ~520 columns but each capacity row touches
// only the handful of graphs whose tasks use that type, so the constraint
// matrix is ~99% zeros — the shape where the revised simplex pays per
// nonzero instead of per matrix entry.
func largeSparseInstance(b *testing.B) *core.CostModel {
	b.Helper()
	p, err := graphgen.Generate(graphgen.Config{
		NumGraphs: 120, MinTasks: 1, MaxTasks: 3,
		MutatePercent: 1.0, NumTypes: 200,
		CostMin: 1, CostMax: 100,
		ThroughputMin: 2, ThroughputMax: 12,
	}, rng.New(0x5BA2).Sub('c', 1))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewCostModel(p)
}

// BenchmarkILPPivotKernel measures the simplex pivot kernel through whole
// exact solves of the two reference instances: the Fig. 8-scale instance
// (small, dense-ish relaxations in a deep tree) and the large sparse
// instance above (big, ~99%-zero relaxations), with the default presolve.
// nodes/op and simplex-iters/op are exactly reproducible; CI gates both
// metrics per sub-benchmark via BENCH_baseline.json.
func BenchmarkILPPivotKernel(b *testing.B) {
	for _, c := range []struct {
		name      string
		m         *core.CostModel
		target    int
		nodeLimit int
	}{
		{"fig8", fig8Instance(b), 120, 150},
		{"large", largeSparseInstance(b), 60, 40},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			iters, nodes := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := solve.ILP(c.m, c.target, &solve.ILPOptions{NodeLimit: c.nodeLimit})
				if err != nil {
					b.Fatalf("ILP: %v", err)
				}
				iters += res.LPIterations
				nodes += res.Nodes
			}
			b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// --- Root presolve -----------------------------------------------------------

// BenchmarkILPPresolve runs the same exact solves with the MILP root
// presolve on and off on the large sparse instance. The presolved root
// substitutes fixed columns, drops redundant capacity rows and tightens
// the default bounds before branch and bound starts (on this instance it
// removes ~33 rows and columns outright), so simplex-iters/op should only
// ever drop relative to the off leg; nodes/op and the incumbent cost must
// stay comparable — both legs must land on the same cost or the run
// aborts. The Fig. 8-scale instance is not repeated here: presolve leaves
// it unchanged, so its two legs reported identical counts, and its
// presolve-on solve is BenchmarkILPPivotKernel/fig8. Both metrics are
// exactly reproducible; CI gates them per sub-benchmark via
// BENCH_baseline.json.
func BenchmarkILPPresolve(b *testing.B) {
	cases := []struct {
		name      string
		m         *core.CostModel
		target    int
		nodeLimit int
	}{
		{"large", largeSparseInstance(b), 60, 40},
	}
	modes := []struct {
		name    string
		disable bool
	}{
		{"on", false},
		{"off", true},
	}
	for _, c := range cases {
		cost := int64(-1) // both legs must land on the same incumbent
		for _, mode := range modes {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				iters, nodes := 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := solve.ILP(c.m, c.target, &solve.ILPOptions{
						NodeLimit: c.nodeLimit, DisablePresolve: mode.disable,
					})
					if err != nil {
						b.Fatalf("ILP (presolve %s): %v", mode.name, err)
					}
					if cost < 0 {
						cost = res.Alloc.Cost
					} else if res.Alloc.Cost != cost {
						b.Fatalf("presolve %s cost %d, other leg found %d", mode.name, res.Alloc.Cost, cost)
					}
					iters += res.LPIterations
					nodes += res.Nodes
				}
				b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}

// --- Online re-optimization sessions -----------------------------------------

// fig8SessionProblem returns a Fig. 8-scale public Problem (10
// alternatives of 100-200 tasks over 50 machine types) for the session
// benches: large enough that each event's re-solve is dominated by
// branch and bound, i.e. exactly where warm re-solves must pay off.
func fig8SessionProblem(b *testing.B) *rentmin.Problem {
	b.Helper()
	p, err := graphgen.Generate(experiments.Fig8Setting(0).Gen, rng.New(0xF198).Sub('c', 3))
	if err != nil {
		b.Fatal(err)
	}
	p.Target = 120
	return p
}

// benchSessionResolve streams an oscillating target script through one
// session per op — the canonical online re-optimization load, where
// consecutive optima stay close — and reports total simplex pivots plus
// solution churn (machine moves per op, informational). Session creation
// (the initial cold solve) happens outside the timed region; the timed
// region is exactly the event re-solves. The warm leg must run every
// re-solve warm and CI gates its simplex-iters/op staying below the cold
// leg's via BENCH_baseline.json.
func benchSessionResolve(b *testing.B, cold bool) {
	b.Helper()
	p := fig8SessionProblem(b)
	targets := []int{110, 120, 110, 120}
	opts := &rentmin.SessionOptions{DisableWarm: cold}
	iters, churn, warm := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, res0, err := rentmin.NewSession(context.Background(), p, opts)
		if err != nil || res0.Status != "optimal" {
			b.Fatalf("session create: %v %+v", err, res0)
		}
		b.StartTimer()
		for _, t := range targets {
			res, err := sess.Apply(context.Background(),
				rentmin.SessionEvent{Kind: rentmin.SessionTargetChange, Target: t})
			if err != nil || res.Status != "optimal" {
				b.Fatalf("apply target %d: %v %+v", t, err, res)
			}
			iters += res.LPIterations
			churn += res.Churn
			if res.Warm {
				warm++
			}
		}
		b.StopTimer()
		sess.Close()
		b.StartTimer()
	}
	if want := len(targets) * b.N; !cold && warm != want {
		b.Fatalf("warm leg ran %d/%d re-solves warm", warm, want)
	} else if cold && warm != 0 {
		b.Fatalf("cold leg ran %d re-solves warm", warm)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
	b.ReportMetric(float64(churn)/float64(b.N), "churn/op")
}

// BenchmarkSessionResolveWarm is the headline session bench: every
// re-solve seeded with the previous optimum (incumbent cutoff) and the
// prior root basis.
func BenchmarkSessionResolveWarm(b *testing.B) { benchSessionResolve(b, false) }

// BenchmarkSessionResolveCold replays the same script with warm seeding
// disabled — every event pays a from-scratch exact solve. The
// simplex-iters/op ratio against BenchmarkSessionResolveWarm is the
// online re-optimization speedup.
func BenchmarkSessionResolveCold(b *testing.B) { benchSessionResolve(b, true) }

// --- Component micro-benchmarks ----------------------------------------------

// BenchmarkCostEval measures one shared-type cost evaluation on a
// Fig3-sized instance (the heuristics' innermost operation).
func BenchmarkCostEval(b *testing.B) {
	m := fig3Instance(b)
	rho := make([]int, m.J)
	for j := range rho {
		rho[j] = 7 * j
	}
	demand := make([]int64, m.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CostInto(rho, demand)
	}
}

// BenchmarkHeuristics measures each heuristic end to end on one instance.
func BenchmarkHeuristics(b *testing.B) {
	m := fig3Instance(b)
	opts := &heuristics.Options{Iterations: 1000, Delta: 10}
	for _, alg := range heuristics.WithH0() {
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Run(m, 150, opts, rng.New(uint64(i)))
			}
		})
	}
}

// BenchmarkExactILP measures one exact solve on a Fig3-sized instance.
func BenchmarkExactILP(b *testing.B) {
	m := fig3Instance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve.ILP(m, 150, nil)
		if err != nil || !res.Proven {
			b.Fatalf("ILP failed: %v %+v", err, res)
		}
	}
}

// BenchmarkStreamSimulator measures the discrete-event engine on the
// paper's worked allocation (~4200 items through 3 recipes, 7 machines).
func BenchmarkStreamSimulator(b *testing.B) {
	p := core.IllustratingExample()
	m := core.NewCostModel(p)
	res, err := solve.ILP(m, 70, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := stream.Config{Problem: p, Alloc: res.Alloc, Duration: 60, Warmup: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Simulate(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicSolve measures the facade path a downstream user hits.
func BenchmarkPublicSolve(b *testing.B) {
	problem := rentmin.IllustratingExample()
	problem.Target = 130
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rentmin.Solve(problem, nil); err != nil {
			b.Fatal(err)
		}
	}
}
