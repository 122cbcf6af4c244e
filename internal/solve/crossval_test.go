package solve

// Property-based cross-validation of every solver and heuristic in the
// repository against the brute-force oracle, on small random instances
// drawn with the paper's generator (internal/graphgen):
//
//   - the exact paths (ILP warm and cold, presolve on and off, and the
//     special-case dynamic programs on instances matching their
//     preconditions) must return the brute-force optimal cost;
//   - every heuristic must return a feasible allocation costing at least
//     the optimum;
//   - every allocation must survive end-to-end validation in the
//     discrete-event stream simulator: the rented machines really sustain
//     the target throughput.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/heuristics"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
	"rentmin/internal/rng"
	"rentmin/internal/stream"
)

// smallGeneratedProblem draws a brute-forceable instance with the paper's
// generator. Graphs mutate a shared initial recipe, so task types are
// shared — the general Section V-C case.
func smallGeneratedProblem(r *rand.Rand) (*core.Problem, int) {
	cfg := graphgen.Config{
		NumGraphs:     2 + r.Intn(3),
		MinTasks:      1 + r.Intn(2),
		MaxTasks:      2 + r.Intn(3),
		MutatePercent: 0.5,
		NumTypes:      2 + r.Intn(3),
		CostMin:       1, CostMax: 25,
		ThroughputMin: 3, ThroughputMax: 15,
		ExtraEdgeProb: 0.2,
	}
	p, err := graphgen.Generate(cfg, rng.New(r.Uint64()))
	if err != nil {
		panic(err)
	}
	target := 5 + r.Intn(20)
	p.Target = target
	return p, target
}

// TestCrossValILPMatchesBruteForce: the general ILP path equals the
// brute-force optimum on generated instances, for warm and cold node LPs,
// and with the root presolve on and off.
func TestCrossValILPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, target := smallGeneratedProblem(r)
		m := core.NewCostModel(p)
		want := BruteForce(m, target).Cost
		// Warm-started and cold node LP solves must both land on the
		// brute-force optimum, bit-identically (costs are integers),
		// whether or not presolve reduced the root.
		for _, coldLP := range []bool{false, true} {
			for _, noPresolve := range []bool{false, true} {
				res, err := ILP(m, target, &ILPOptions{
					DisableLPWarmStart: coldLP, DisablePresolve: noPresolve,
				})
				if err != nil || !res.Proven {
					return false
				}
				if res.Alloc.Cost != want {
					return false
				}
				if err := m.CheckFeasible(res.Alloc, target); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCrossValBoundedVsRowBoundEncodings cross-validates the two ways of
// expressing variable bounds through the whole branch-and-bound stack:
// the paper MILP is boxed with valid upper bounds (ρ_j <= target, machine
// counts below a coverage ceiling) encoded once natively in lp.Problem
// Lo/Hi — the scheme branching itself uses, bounds in the ratio test —
// and once as explicit constraint rows. Both must report the brute-force
// optimal cost, warm- and cold-started node LPs alike.
func TestCrossValBoundedVsRowBoundEncodings(t *testing.T) {
	for _, seed := range []int64{5, 19, 83} {
		r := rand.New(rand.NewSource(seed))
		p, target := smallGeneratedProblem(r)
		m := core.NewCostModel(p)
		want := float64(BruteForce(m, target).Cost)

		base := BuildMILP(m, target)
		nv := base.LP.NumVars()
		// Valid box: some optimal solution keeps every graph throughput at
		// or below the target, and machine counts below the all-graphs
		// worst-case coverage ceiling.
		box := make([]float64, nv)
		for j := 0; j < m.J; j++ {
			box[j] = float64(target)
		}
		for q := 0; q < m.Q; q++ {
			maxN := 0
			for j := 0; j < m.J; j++ {
				if m.N[j][q] > maxN {
					maxN = m.N[j][q]
				}
			}
			box[m.J+q] = math.Ceil(float64(m.J*target*maxN)/float64(m.R[q])) + 1
		}

		bounded := &milp.Problem{LP: *base.LP.Clone(), Integer: base.Integer}
		bounded.LP.Hi = box

		rows := &milp.Problem{LP: *base.LP.Clone(), Integer: base.Integer}
		for j, hi := range box {
			rows.LP.Constraints = append(rows.LP.Constraints, lp.Constraint{Idx: []int32{int32(j)}, Val: []float64{1}, Rel: lp.LE, RHS: hi})
		}

		for _, coldLP := range []bool{false, true} {
			opts := &milp.Options{DisableWarmLP: coldLP}
			for name, prob := range map[string]*milp.Problem{"bounded": bounded, "rows": rows} {
				res, err := milp.Solve(prob, opts)
				if err != nil {
					t.Fatalf("seed %d cold %v %s: %v", seed, coldLP, name, err)
				}
				if res.Status != milp.Optimal {
					t.Fatalf("seed %d cold %v %s: status %v", seed, coldLP, name, res.Status)
				}
				if math.Abs(res.Objective-want) > 1e-6 {
					t.Errorf("seed %d cold %v %s: cost %g, brute force %g",
						seed, coldLP, name, res.Objective, want)
				}
			}
		}
	}
}

// randomBlackBoxModel builds a random Section V-A instance: each graph is
// one task of a private type.
func randomBlackBoxModel(r *rand.Rand) *core.CostModel {
	j := 2 + r.Intn(4)
	p := &core.Problem{}
	for g := 0; g < j; g++ {
		p.App.Graphs = append(p.App.Graphs, core.NewChain("g", g))
		p.Platform.Machines = append(p.Platform.Machines, core.MachineType{
			Throughput: 1 + r.Intn(12),
			Cost:       1 + r.Intn(20),
		})
	}
	return core.NewCostModel(p)
}

// TestCrossValBlackBoxDP: the covering-knapsack DP equals brute force and
// the general ILP on random black-box instances.
func TestCrossValBlackBoxDP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomBlackBoxModel(r)
		target := 1 + r.Intn(25)
		want := BruteForce(m, target).Cost
		dp, err := BlackBoxDP(m, target)
		if err != nil || dp.Cost != want {
			return false
		}
		ilp, err := ILP(m, target, nil)
		if err != nil || !ilp.Proven || ilp.Alloc.Cost != want {
			return false
		}
		return m.CheckFeasible(dp, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomNoSharedModel builds a random Section V-B instance: chains over
// disjoint type sets.
func randomNoSharedModel(r *rand.Rand) *core.CostModel {
	j := 2 + r.Intn(3)
	p := &core.Problem{}
	next := 0
	for g := 0; g < j; g++ {
		tasks := 1 + r.Intn(3)
		types := make([]int, tasks)
		for i := range types {
			types[i] = next
			next++
		}
		p.App.Graphs = append(p.App.Graphs, core.NewChain("g", types...))
	}
	for q := 0; q < next; q++ {
		p.Platform.Machines = append(p.Platform.Machines, core.MachineType{
			Throughput: 2 + r.Intn(10),
			Cost:       1 + r.Intn(15),
		})
	}
	return core.NewCostModel(p)
}

// TestCrossValNoSharedDP: the pseudo-polynomial DP equals brute force and
// the general ILP on random no-shared instances.
func TestCrossValNoSharedDP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomNoSharedModel(r)
		target := 1 + r.Intn(20)
		want := BruteForce(m, target).Cost
		dp, err := NoSharedDP(m, target)
		if err != nil || dp.Cost != want {
			return false
		}
		ilp, err := ILP(m, target, nil)
		if err != nil || !ilp.Proven || ilp.Alloc.Cost != want {
			return false
		}
		return m.CheckFeasible(dp, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCrossValHeuristicsBoundedAndSimulatable: every heuristic returns a
// feasible allocation costing at least the exact optimum, and the
// allocation sustains the target throughput in the discrete-event
// simulator (within the 10% tolerance the stream tests use for short
// horizons).
func TestCrossValHeuristicsBoundedAndSimulatable(t *testing.T) {
	opts := &heuristics.Options{Iterations: 300, Patience: 50, Delta: 2, Jumps: 5, JumpLength: 2}
	for _, seed := range []int64{2, 11, 23, 47, 71} {
		r := rand.New(rand.NewSource(seed))
		p, target := smallGeneratedProblem(r)
		m := core.NewCostModel(p)
		optimum := BruteForce(m, target).Cost
		for ai, alg := range heuristics.WithH0() {
			alloc := alg.Run(m, target, opts, rng.New(uint64(seed)).Sub('a', uint64(ai)))
			if err := m.CheckFeasible(alloc, target); err != nil {
				t.Errorf("seed %d %s: infeasible: %v", seed, alg.Name, err)
				continue
			}
			if alloc.Cost < optimum {
				t.Errorf("seed %d %s: cost %d beats the optimum %d", seed, alg.Name, alloc.Cost, optimum)
			}
			met, err := stream.Simulate(stream.Config{
				Problem: p, Alloc: alloc, Duration: 30, Warmup: 10,
			}, nil)
			if err != nil {
				t.Errorf("seed %d %s: simulate: %v", seed, alg.Name, err)
				continue
			}
			if met.Throughput < 0.9*float64(target) {
				t.Errorf("seed %d %s: simulated %.2f items/t.u., target %d",
					seed, alg.Name, met.Throughput, target)
			}
			if !met.InOrder {
				t.Errorf("seed %d %s: items left the reorder buffer out of order", seed, alg.Name)
			}
		}
	}
}
