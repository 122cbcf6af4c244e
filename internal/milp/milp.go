// Package milp implements a branch-and-bound mixed-integer linear
// programming solver on top of the simplex solver in package lp. Together
// they stand in for the commercial ILP solver (Gurobi) used by the paper.
//
// Features used by the reproduction:
//
//   - best-bound node selection with reliability branching: children
//     of a fractional candidate are solved (probed) only until the
//     variable has pseudocosts in both directions, after which its score
//     is estimated from them (see branch.go);
//   - optional warm start from a known feasible point (the paper-style
//     workflow seeds it with the best heuristic solution);
//   - an optional caller-supplied rounding repair that turns fractional LP
//     points into feasible incumbents at every node;
//   - integral-objective pruning: when every feasible objective value is
//     an integer, a node with LP bound 123.01 cannot beat an incumbent of
//     124 and is cut. The solve reads this off the problem (see
//     integralObjective), so no caller asserts it;
//   - node bound tightening by reduced costs: once an incumbent exists,
//     every branching node recomputes its columns' reduced costs from its
//     LP duals and caps each integer column resting at a bound by how far
//     it can move before the LP bound passes the incumbent; both children
//     inherit the tightened box, and columns it fixes drop out of pricing
//     (see tighten). It is always on;
//   - a wall-clock budget through the context deadline, with best-found
//     reporting, reproducing the paper's "ILP hits its 100 s budget"
//     experiment (Fig. 8);
//   - dual-simplex LP warm starts over bound patches: a child's LP is its
//     parent's with one variable bound tightened (the bound lives in the
//     simplex ratio test, never as a constraint row, so the basis stays
//     m×m for the whole tree). The tree's LP is compiled once into an
//     lp.Model after the root, each branching node's optimal basis is
//     restored once into an lp.Start, and every child re-optimizes from
//     it via Model.SolveFrom with only its bounds —
//     most of the per-node simplex work disappears on deep trees, with a
//     transparent cold-solve fallback whenever a restore is rejected (see
//     Options.DisableWarmLP to switch the path off). The basis travels as
//     an opaque *lp.Basis, so the search never touches simplex internals.
//
// The search is one sequential loop: pop the best-bound node, prepare it
// (leaf detection, rounding repair, branching candidates, reduced-cost
// bound tightening, basis restore),
// then finish it (probe children, update pseudocosts, accept incumbents,
// enqueue the winning pair). A solve is a pure function of its problem
// and options, so every counter is reproducible run to run. Cores are
// used by running many solves at once, one search per goroutine.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"rentmin/internal/lp"
	"rentmin/internal/obs"
)

// Problem is a linear program plus integrality flags.
type Problem struct {
	LP lp.Problem
	// Integer[j] marks variable j as integer-constrained. Length must
	// equal the number of LP variables.
	Integer []bool
}

// Validate checks dimensions and delegates to the LP validation.
func (p *Problem) Validate() error {
	if err := p.LP.Validate(); err != nil {
		return err
	}
	if len(p.Integer) != p.LP.NumVars() {
		return fmt.Errorf("milp: %d integrality flags for %d variables", len(p.Integer), p.LP.NumVars())
	}
	return nil
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means a limit stopped the search with an incumbent in hand.
	Feasible
	// Infeasible means no integer point satisfies the constraints.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// NoSolution means a limit stopped the search before any incumbent
	// was found.
	NoSolution
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Rounder attempts to repair a (fractional) LP point into an integer
// feasible point. It returns the candidate and true on success. x is
// valid only during the call: the search lifts it into scratch it
// overwrites at the next node, so a Rounder must not keep it. The
// returned slice must not alias the input, and the search may keep it
// as the incumbent. A search calls its Rounder from one goroutine only.
type Rounder func(x []float64) ([]float64, bool)

// Options tunes the search.
type Options struct {
	// NodeLimit bounds the number of explored nodes; zero means unlimited.
	NodeLimit int
	// Incumbent optionally warm-starts the search with a feasible point.
	// It is validated; an invalid point is an error.
	Incumbent []float64
	// Rounder optionally repairs node LP relaxation points into feasible
	// incumbents.
	Rounder Rounder
	// RootCutRounds enables Gomory fractional cutting planes, the root's
	// only cut family, for up to this many rounds. Requires a pure integer
	// program with integral constraint data (see lp.SolveGomory); the
	// caller is responsible for that contract. Zero disables cuts.
	RootCutRounds int
	// Presolve runs the root reduction pass (bound tightening, fixing,
	// row/column elimination, coefficient reduction — see presolve.go)
	// before branch and bound, searching the reduced problem and lifting
	// the optimum back through the postsolve map. When an Incumbent is
	// supplied, its objective feeds presolve as a cutoff, which is what
	// gives the recipe model's default-bound formulation finite bounds to
	// propagate. Root cuts, when RootCutRounds asks for them, are
	// generated on the reduced rows. The reported optimum is identical
	// with and without presolve.
	Presolve bool
	// DisableWarmLP forces a cold two-phase simplex solve at every node
	// instead of the default dual-simplex warm start from the parent's
	// optimal basis (ablation/debugging; the optimum is identical either
	// way, warm starts only change how many pivots reach it).
	DisableWarmLP bool
	// RootBasis optionally starts the ROOT relaxation from a known basis:
	// one basic column per constraint row of the problem, in the
	// problem's own column space (a negative entry names the row's own
	// slack; rows past the list keep their slack basic). A caller that
	// knows its root's optimal basis, as package solve does for the
	// recipe model, solves the root with 0 pivots. Under Presolve the
	// basis is mapped onto the reduced problem: a removed row drops out,
	// and a kept row whose basic column was fixed takes its own slack. A
	// basis that is singular or not dual feasible there falls back to a
	// cold solve inside lp.SolveFrom. A seeded root runs no
	// RootCutRounds. Ignored under DisableWarmLP.
	RootBasis []int32
}

// intTol is the integrality tolerance: a value within it of an integer
// counts as integral.
const intTol = 1e-6

// SearchStats counts the work of one solve. It is the one report type
// for solver effort: package solve, the rentmin facade, sessions and the
// rentmind wire types all embed it unchanged, and its JSON tags are the
// wire names. Every counter is reproducible run to run.
type SearchStats struct {
	// Nodes counts explored branch-and-bound nodes.
	Nodes int `json:"nodes"`
	// LPIterations is the total number of simplex pivots across every
	// node LP solved during the search (including warm-start restore
	// pivots and speculative strong-branching children).
	LPIterations int `json:"lp_iterations"`
	// LPSolves counts node LP relaxations solved. WarmLPSolves is the
	// subset re-optimized by the dual simplex from a parent basis; the
	// rest (the root, rejected restores, and everything under
	// Options.DisableWarmLP) solved cold, two-phase.
	LPSolves     int `json:"lp_solves"`
	WarmLPSolves int `json:"warm_lp_solves,omitempty"`
	// Cuts counts the Gomory fractional cuts added at the root over
	// CutRounds generation rounds; CutRounds never exceeds
	// Options.RootCutRounds.
	Cuts      int `json:"cuts,omitempty"`
	CutRounds int `json:"cut_rounds,omitempty"`
	// Presolve counts the root reductions applied (all zero when
	// Options.Presolve is off).
	Presolve PresolveStats `json:"presolve"`
	// UnresolvedLPs counts child LPs that ended neither optimal nor
	// infeasible twice, warm and then cold (an iteration limit, say). Such
	// a child is set aside with its parent's bound, and a search that ends
	// with one below the incumbent reports Feasible, not Optimal.
	UnresolvedLPs int `json:"unresolved_lps,omitempty"`
}

// Result reports the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64 // incumbent (valid for Optimal and Feasible)
	Objective float64   // incumbent objective
	Bound     float64   // proven lower bound on the optimum
	Elapsed   time.Duration
	// Gap is (Objective-Bound)/max(1,|Objective|); zero when optimal.
	Gap float64
	SearchStats
	// RootLPWarm reports whether the root relaxation started from
	// Options.RootBasis (false when none was given, no root LP ran, or the
	// basis was rejected and the root solved cold).
	RootLPWarm bool
}

// node is one branch-and-bound subproblem, defined by variable bounds.
// Its LP is the tree's compiled model under the node's accumulated bound
// patches lo/hi (nil slices take lp.Problem's defaults) — the LP shape is
// m×n at every node of the tree. relax.Basis is the optimal basis its
// children re-optimize from with dual-simplex warm starts; a bound
// tightening never disturbs dual feasibility, so the parent basis is
// always a valid warm start for a child.
type node struct {
	lo, hi []float64
	relax  lp.Solution
	bound  float64
	seq    int
}

// lower returns the node's lower bound on variable j.
func (n *node) lower(j int) float64 {
	if n.lo == nil {
		return 0
	}
	return n.lo[j]
}

// upper returns the node's upper bound on variable j.
func (n *node) upper(j int) float64 {
	if n.hi == nil {
		return math.Inf(1)
	}
	return n.hi[j]
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq > h[j].seq // prefer deeper/newer nodes on ties (dives faster)
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound.
func Solve(p *Problem, opts *Options) (Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs branch and bound under a context. The context is the
// only wall-clock bound: cancellation or its deadline stops the search,
// the node in hand is abandoned, and the best incumbent found so far is
// returned with Status Feasible (or NoSolution when none exists) and the
// tightest proven bound. Granularity: cancellation is observed before
// the root solve and before and after each node's preparation — but not
// among a node's child LP solves or inside a single simplex solve, so the
// root relaxation (including its Gomory cut rounds) finishes once
// started.
// The exact stopping point depends on when the cancellation lands, so —
// unlike a search with no limits — a cancelled run is not reproducible.
// A nil opts means the zero Options.
func SolveContext(ctx context.Context, p *Problem, opts *Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if opts == nil {
		opts = &Options{}
	}
	s := &solver{
		p: p, ctx: ctx, opts: opts, trace: obs.TraceFrom(ctx), start: time.Now(),
		intObj: integralObjective(p),
	}
	return s.run()
}

// integralObjective reports whether every integer-feasible point of p has
// an integral objective value: every integer column costs a whole number
// and every continuous column costs nothing.
func integralObjective(p *Problem) bool {
	for j, c := range p.LP.Objective {
		if p.Integer[j] && c != math.Round(c) || !p.Integer[j] && c != 0 {
			return false
		}
	}
	return true
}

type solver struct {
	p     *Problem
	work  *Problem    // problem the tree searches: p, or its presolve reduction
	red   *Reduced    // postsolve map (nil when presolve is off or reduced nothing)
	base  *lp.Problem // work's LP plus root cuts
	model *lp.Model   // base compiled once after the root; every child solves through it
	ctx   context.Context
	opts  *Options // never nil
	// intObj records that every feasible objective value is an integer
	// (integralObjective), so pruned and tighten may round bounds.
	intObj bool
	// trace observes the search (nil when the context carries none): it
	// receives every accepted incumbent and a snapshot after every node.
	trace *obs.Trace
	start time.Time
	// objOff is the objective contribution of presolve-fixed variables;
	// node bounds are kept in original-objective units by adding it to
	// every reduced-space LP objective.
	objOff float64

	bestX   []float64
	bestObj float64 // +inf until an incumbent exists
	hasBest bool
	// aside is the lowest bound of a set-aside unresolved child (+inf
	// while there is none): the search never proves anything below it.
	aside float64

	// nodeStart holds the restored basis of the node being expanded:
	// prepare restores a branching node's basis into it, and the node's
	// children all re-solve from it. Nil under DisableWarmLP.
	nodeStart *lp.Start

	// rc is tighten's scratch for a node's reduced costs, one per column
	// of the tree's LP.
	rc []float64
	// clo and chi are buildChild's scratch for a child's patched bound
	// sides, one entry per column of the tree's LP, and lifted is
	// prepare's for a relaxation point lifted to the original space for
	// the Rounder. All three live for one search.
	clo, chi, lifted []float64

	stats SearchStats
	seq   int

	// pcs holds reliability branching's pseudocosts, one slot per integer
	// column of the searched problem (see branch.go). Written only by
	// finish; nil until the first branching decision.
	pcs []pseudocost

	// rootWarm records that the root relaxation started from
	// Options.RootBasis.
	rootWarm bool
}

var errLimit = errors.New("milp: limit reached")

// starts recycles the search's Start across searches, so a search
// allocates none once its buffers have grown to its LP.
var starts = sync.Pool{New: func() any { return new(lp.Start) }}

func (s *solver) run() (Result, error) {
	s.bestObj = math.Inf(1)
	s.aside = math.Inf(1)
	s.work = s.p

	if inc := s.optIncumbent(); inc != nil {
		obj, err := s.checkFeasible(inc)
		if err != nil {
			return Result{}, fmt.Errorf("milp: warm-start incumbent rejected: %w", err)
		}
		s.accept(inc, obj)
	}

	// An already-cancelled search must not pay for the root relaxation —
	// on large instances the root solve plus Gomory cut rounds is the
	// most expensive single LP phase, and it runs as one uninterruptible
	// block (no proven bound exists yet, hence the -inf).
	if s.cancelled() {
		return s.limitResult(math.Inf(-1)), nil
	}

	// basis is the root's seed over the searched problem's rows and
	// columns: Options.RootBasis, mapped by presolve when the search runs
	// on its reduction.
	var basis []int32
	if !s.opts.DisableWarmLP {
		basis = s.opts.RootBasis
	}
	if s.opts.Presolve {
		if res, done := s.runPresolve(basis); done {
			return res, nil
		}
		if s.red != nil {
			basis = s.red.basis
		}
	}
	s.base = &s.work.LP

	root := &node{lo: s.base.Lo, hi: s.base.Hi}
	var rootSeed *lp.Basis
	if basis != nil {
		rootSeed = lp.NewBasis(s.base.NumVars(), basis)
	}
	var st lp.Status
	var err error
	if rootSeed == nil && s.opts.RootCutRounds > 0 {
		st, err = s.solveRootWithCuts(root)
	} else {
		st, err = s.solveRoot(root, rootSeed)
	}
	if err != nil {
		return Result{}, err
	}
	s.rootWarm = st == lp.Optimal && rootSeed != nil && root.relax.Warm
	switch st {
	case lp.Unbounded:
		return s.result(Unbounded), nil
	case lp.Infeasible:
		if s.hasBest {
			// The warm start proved feasibility; an infeasible root
			// relaxation means the LP solver and the incumbent disagree.
			return Result{}, fmt.Errorf("milp: root relaxation reported %w despite a feasible warm start", lp.ErrInfeasible)
		}
		return s.result(Infeasible), nil
	case lp.IterLimit:
		return Result{}, fmt.Errorf("milp: root relaxation: %w", lp.ErrIterLimit)
	}

	// The root and its cuts have fixed the tree's rows: compile them once.
	if s.model, err = lp.NewModel(s.base); err != nil {
		return Result{}, err
	}
	defer s.model.Release()

	h := &nodeHeap{}
	heap.Init(h)
	s.enqueue(h, root)

	if !s.opts.DisableWarmLP {
		s.nodeStart = starts.Get().(*lp.Start)
		defer starts.Put(s.nodeStart)
	}

	lowest := root.bound // best proven global bound
	for round := 1; h.Len() > 0; round++ {
		if err := s.checkLimits(); err != nil {
			return s.limitResult(lowest), nil
		}
		if s.pruned((*h)[0].bound) {
			// Heap minimum is prunable; best-bound order makes every
			// remaining node prunable too.
			break
		}
		n := heap.Pop(h).(*node)
		lowest = n.bound
		p := s.prepare(n)
		if s.cancelled() {
			// The popped node stays unexplored, and lowest is still the
			// proven global bound.
			return s.limitResult(lowest), nil
		}
		s.finish(h, p)
		s.trace.Round(round, math.Min(lowest, s.aside), s.bestObj, s.hasBest, h.Len(), s.stats.Nodes)
	}

	if !math.IsInf(s.aside, 1) && !s.pruned(s.aside) {
		// An unresolved subtree may still hold a better point.
		return s.limitResult(s.aside), nil
	}
	res := s.result(Optimal)
	if !s.hasBest {
		res.Status = Infeasible
	}
	res.Bound = res.Objective
	res.Gap = 0
	return res, nil
}

// runPresolve runs the root reduction pass and installs the reduced
// problem as the search target, mapping basis (a root basis, or nil)
// onto it. It returns (result, true) when presolve
// finishes the solve outright: proven infeasibility, a cutoff-infeasible
// reduction (nothing beats the incumbent, which proves it optimal), or a
// fully fixed problem whose single candidate point settles the answer.
func (s *solver) runPresolve(basis []int32) (Result, bool) {
	cutoff := math.Inf(1)
	if s.hasBest {
		cutoff = s.bestObj
	}
	red := presolve(s.p, cutoff, basis)
	s.stats.Presolve = red.Stats
	if red.Infeasible {
		if s.hasBest {
			// The incumbent satisfies every constraint and the (non-strict)
			// cutoff, so infeasibility here proves no point improves on it.
			res := s.result(Optimal)
			res.Bound = res.Objective
			res.Gap = 0
			return res, true
		}
		return s.result(Infeasible), true
	}
	if red.P.LP.NumVars() == 0 {
		// Every variable was fixed: the reduction leaves exactly one
		// candidate point.
		x := red.Postsolve(nil)
		if obj, err := s.checkFeasible(x); err == nil && obj < s.bestObj-1e-9 {
			s.accept(x, obj)
		}
		if s.hasBest {
			res := s.result(Optimal)
			res.Bound = res.Objective
			res.Gap = 0
			return res, true
		}
		return s.result(Infeasible), true
	}
	if red.Stats.empty() {
		return Result{}, false // nothing reduced: search the original
	}
	s.red = red
	s.work = red.P
	s.objOff = red.ObjOffset
	return Result{}, false
}

// candidate is an integer-feasible point found while preparing a node.
type candidate struct {
	x   []float64
	obj float64
}

// prep is what prepare learns about a node: incumbent candidates found
// (from an integral relaxation or the rounding repair), the branching
// candidates whose children finish must solve (probes, best estimate
// first), and the best reliable candidate, whose pair finish solves only
// if it wins (reliable.j < 0 when there is none).
type prep struct {
	n          *node
	start      *lp.Start // n's restored basis (nil: children solve cold)
	integral   bool
	candidates []candidate
	probes     []branchCand
	reliable   branchCand
}

// prepare runs the first half of a node's expansion: branching-candidate
// selection, which also detects an integral leaf, the rounding repair,
// and, for a node that branches, reduced-cost bound tightening and the
// restore of its optimal basis into the search's Start, once for all its
// children.
func (s *solver) prepare(n *node) prep {
	p := prep{n: n}
	p.probes, p.reliable = s.branchCandidates(n.relax.X, probeCap)
	if len(p.probes) == 0 && p.reliable.j < 0 {
		// No fractional integer column: the node is a leaf. Under
		// presolve the relaxation point lives in reduced space; lift it
		// (and price it against the original objective) before it can
		// become an incumbent.
		p.integral = true
		if s.red == nil {
			if obj := n.relax.Objective; obj < s.bestObj-1e-9 {
				p.candidates = append(p.candidates, candidate{
					x:   append([]float64(nil), n.relax.X...),
					obj: obj,
				})
			}
			return p
		}
		x, obj := s.liftLeaf(n.relax.X)
		if obj < s.bestObj-1e-9 {
			p.candidates = append(p.candidates, candidate{x: x, obj: obj})
		}
		return p
	}
	if s.opts.Rounder != nil {
		// The rounder works in original-variable space (it encodes model
		// knowledge, e.g. solve.RoundingRepair's recipe rounding), so the
		// reduced point is lifted first; its candidate is checked against
		// the original problem as usual.
		rx := n.relax.X
		if s.red != nil {
			s.lifted = s.red.postsolveInto(s.lifted, rx)
			rx = s.lifted
		}
		if cand, ok := s.opts.Rounder(rx); ok {
			if obj, err := s.checkFeasible(cand); err == nil && obj < s.bestObj-1e-9 {
				p.candidates = append(p.candidates, candidate{x: cand, obj: obj})
			}
		}
	}
	s.tighten(n)
	if s.nodeStart != nil {
		// The node branches: restore its basis once for all its children.
		p.start = s.nodeStart
		s.model.Restore(p.start, n.relax.Basis)
	}
	return p
}

// liftLeaf turns an integral reduced-space relaxation point into an
// original-space incumbent candidate: reduced integer variables snap to
// the nearest integer (the LP leaves them within tol of it), the point is
// lifted through the postsolve map, and the objective is re-priced
// exactly against the original cost vector — the same trust the
// non-presolve path places in an integral relaxation.
func (s *solver) liftLeaf(rx []float64) ([]float64, float64) {
	y := append([]float64(nil), rx...)
	for j, isInt := range s.work.Integer {
		if isInt {
			y[j] = math.Round(y[j])
		}
	}
	x := s.red.Postsolve(y)
	obj := 0.0
	for j, c := range s.p.LP.Objective {
		obj += c * x[j]
	}
	return x, obj
}

// finish runs the second half of a node's expansion: its candidates are
// accepted, then the children of the selected branching variable are
// solved and the surviving ones enqueued (enqueue prunes against the
// updated incumbent).
func (s *solver) finish(h *nodeHeap, p prep) {
	s.stats.Nodes++
	for _, c := range p.candidates {
		if c.obj < s.bestObj-1e-9 {
			s.accept(c.x, c.obj)
		}
	}
	if p.integral {
		return
	}
	// Probe the unreliable candidates in estimate order and score each
	// pair by its real child bounds. A fully pruned pair leaves the node
	// with no children, which saves the remaining probes' solves; a pair
	// with one infeasible child scores +Inf and ends the scan too, since
	// no later probe could beat it except a fully pruned pair. A reliable
	// candidate whose estimate beats every probe is branched on, its pair
	// solved only now.
	var bestPair [2]child
	bestScore := math.Inf(-1)
	for _, c := range p.probes {
		down, up := s.solveChild(&p, c.j, 0), s.solveChild(&p, c.j, 1)
		s.observe(p.n, c, &down, &up)
		if down.state == childInfeasible && up.state == childInfeasible {
			return // both children infeasible: the node is fully pruned
		}
		score := pairScore(p.n, &down, &up)
		if score > bestScore {
			bestScore = score
			bestPair = [2]child{down, up}
		}
		if math.IsInf(score, 1) {
			break // one child infeasible: the node keeps a single child
		}
	}
	if c := p.reliable; c.j >= 0 && c.score > bestScore {
		down, up := s.solveChild(&p, c.j, 0), s.solveChild(&p, c.j, 1)
		s.observe(p.n, c, &down, &up)
		bestPair = [2]child{down, up}
	}
	for i := range bestPair {
		s.enqueueChild(h, p.n, &bestPair[i])
	}
}

// childState is how a child's LP ended. The zero value is infeasible, so
// a child never solved (a pair slot no probe filled) enqueues nothing.
type childState int8

const (
	// childInfeasible: the patched box is empty or the LP is infeasible.
	childInfeasible childState = iota
	// childSolved: the LP is optimal; relax and bound hold its result.
	childSolved
	// childUnresolved: the LP settled neither way, warm nor cold; bound
	// is the parent's.
	childUnresolved
)

// child is a solved child of a node, kept as a value: the bound patch
// lo <= x_j <= hi on its parent's box, its relaxation and its bound. A
// probe that loses, an infeasible child and an unresolved one that is set
// aside never become more; only enqueueChild gives a child a *node and
// its own bound slices.
type child struct {
	j      int
	lo, hi float64
	relax  lp.Solution
	bound  float64
	state  childState
}

// solveChild builds and solves one child of the prepared node: dir 0
// adds x_j <= floor, dir 1 adds x_j >= ceil.
func (s *solver) solveChild(p *prep, j, dir int) child {
	v := p.n.relax.X[j]
	if dir == 0 {
		return s.buildChild(p.n, p.start, j, math.Inf(-1), math.Floor(v))
	}
	return s.buildChild(p.n, p.start, j, math.Ceil(v), math.Inf(1))
}

// buildChild solves one child of n with the extra bound lo <= x_j <= hi
// merged in. The child's LP is the tree's model under the parent's bounds
// with the one variable bound tightened: the side that changes is a copy
// in the solver's scratch with entry j patched, the other side is the
// parent's own slice (Model.SolveFrom copies bounds in at load, so the
// scratch is free again once the solve returns). Its relaxation is
// re-optimized from n's basis, restored in start, via the dual-simplex
// warm start. A child whose box is empty or whose LP is infeasible comes
// back childInfeasible. A child whose LP ends otherwise is solved once
// more, cold; if that fails too, it comes back unresolved with n's bound.
func (s *solver) buildChild(n *node, start *lp.Start, j int, lo, hi float64) child {
	if pl := n.lower(j); pl > lo {
		lo = pl
	}
	if ph := n.upper(j); ph < hi {
		hi = ph
	}
	c := child{j: j, lo: lo, hi: hi}
	if lo > hi {
		return c
	}
	nv := s.base.NumVars()
	if s.clo == nil {
		s.clo, s.chi = make([]float64, nv), make([]float64, nv)
	}
	clo, chi := patchBounds(n, nv, j, lo, hi, s.clo, s.chi)
	st, ok := s.solveRelax(&c, clo, chi, start)
	if !ok {
		st, ok = s.solveRelax(&c, clo, chi, nil)
	}
	switch {
	case !ok:
		s.stats.UnresolvedLPs++
		c.state, c.bound = childUnresolved, n.bound
	case st == lp.Optimal:
		c.state = childSolved
	}
	return c
}

// patchedBound derives a child node from its parent, with fresh copies
// of the bound sides that change (patchBounds).
func patchedBound(p *node, nvars, j int, lo, hi float64) *node {
	c := &node{}
	c.lo, c.hi = patchBounds(p, nvars, j, lo, hi, nil, nil)
	return c
}

// patchBounds returns p's bounds with lo <= x_j <= hi patched in. Only
// the bound slice that actually changes is copied, into dlo or dhi (nil
// makes a fresh one), with entry j replaced; the untouched side stays
// shared with the parent (a down branch copies hi only, so a tree that
// never raises a lower bound keeps lo nil). Copying one n-sized slice is
// the entire per-node problem derivation; bounds are positional, so no
// ordering has to be kept deterministic.
func patchBounds(p *node, nvars, j int, lo, hi float64, dlo, dhi []float64) (clo, chi []float64) {
	clo, chi = p.lo, p.hi
	if lo != p.lower(j) {
		clo = boundInto(dlo, p.lo, nvars, 0)
		clo[j] = lo
	}
	if hi != p.upper(j) {
		chi = boundInto(dhi, p.hi, nvars, math.Inf(1))
		chi[j] = hi
	}
	return clo, chi
}

// rcTol is the smallest reduced cost that tightens a bound: anything
// smaller is pricing roundoff on a basic column.
const rcTol = 1e-7

// tighten applies reduced-cost fixing (Nemhauser & Wolsey 1988) to a
// branching node. With LP bound z, incumbent z* and row duals y, every
// point of the node's subtree satisfies c·x ≥ z + Σ_j d_j·(x_j − x*_j),
// where d_j = c_j − yᵀa_j and x* is the node's relaxation point, and
// dual feasibility makes every term of the sum non-negative. So an
// integer column resting at its lower bound with d_j > 0 can rise by at
// most ⌊gap/d_j⌋ in any point that beats the incumbent, where
// gap = z* − z, or z* − 1 − z when every feasible objective is an
// integer (intObj); a column at a finite upper bound with d_j < 0
// mirrors the rule. The gap is widened by a small margin so roundoff
// never cuts off an improving point. The node's lo/hi may be
// shared with its parent and sibling (patchedBound), so a tightened side
// is replaced by a copy; both children then inherit it.
func (s *solver) tighten(n *node) {
	if !s.hasBest {
		return
	}
	gap := s.bestObj - n.bound
	if s.intObj {
		gap--
	}
	gap = math.Max(gap, 0) + 1e-6*math.Max(1, math.Abs(s.bestObj))
	d := s.reducedCosts(n.relax.Duals)
	var lo, hi []float64 // the node's tightened copies, made on first change
	for j, isInt := range s.work.Integer {
		if !isInt {
			continue
		}
		x, l, u := n.relax.X[j], n.lower(j), n.upper(j)
		switch {
		case d[j] > rcTol && x <= l+intTol:
			if nu := l + math.Floor(gap/d[j]); nu < u {
				if hi == nil {
					hi = boundCopy(n.hi, len(d), math.Inf(1))
				}
				hi[j] = nu
			}
		case d[j] < -rcTol && x >= u-intTol:
			if nl := u - math.Floor(gap/-d[j]); nl > l {
				if lo == nil {
					lo = boundCopy(n.lo, len(d), 0)
				}
				lo[j] = nl
			}
		}
	}
	if lo != nil {
		n.lo = lo
	}
	if hi != nil {
		n.hi = hi
	}
}

// reducedCosts returns d = c − Aᵀy over the tree's rows, cut rows
// included, in a scratch slice the solver reuses for every node.
func (s *solver) reducedCosts(y []float64) []float64 {
	d := append(s.rc[:0], s.base.Objective...)
	for i := range s.base.Constraints {
		if yi := y[i]; yi != 0 {
			c := &s.base.Constraints[i]
			for k, j := range c.Idx {
				d[j] -= yi * c.Val[k]
			}
		}
	}
	s.rc = d
	return d
}

// boundCopy returns a fresh copy of a node's bound slice, filled with
// the default def when the node has none.
func boundCopy(b []float64, n int, def float64) []float64 {
	return boundInto(nil, b, n, def)
}

// boundInto is boundCopy into dst, which has n entries or is nil.
func boundInto(dst, b []float64, n int, def float64) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	if b != nil {
		copy(dst, b)
	} else {
		for k := range dst {
			dst[k] = def
		}
	}
	return dst
}

// enqueueChild keeps a solved child of n: an infeasible or prunable child
// is dropped, an unresolved one is set aside (only its bound is kept),
// and a child that enters the heap gets its node, with its own copy of
// the patched bound side (patchedBound), only now.
func (s *solver) enqueueChild(h *nodeHeap, n *node, c *child) {
	if c.state == childInfeasible || s.pruned(c.bound) {
		return
	}
	if c.state == childUnresolved {
		s.aside = math.Min(s.aside, c.bound)
		return
	}
	kid := patchedBound(n, s.base.NumVars(), c.j, c.lo, c.hi)
	kid.relax, kid.bound = c.relax, c.bound
	s.enqueue(h, kid)
}

// enqueue pushes a solved node unless its bound is already prunable.
func (s *solver) enqueue(h *nodeHeap, n *node) {
	if s.pruned(n.bound) {
		return
	}
	s.seq++
	n.seq = s.seq
	heap.Push(h, n)
}

// pruned reports whether a node with the given LP bound can be discarded
// given the current incumbent.
func (s *solver) pruned(bound float64) bool {
	if !s.hasBest {
		return false
	}
	if s.intObj {
		bound = math.Ceil(bound - 1e-6)
	}
	return bound >= s.bestObj-1e-9
}

// solveRootWithCuts strengthens the root relaxation with Gomory rounds;
// the generated cuts are valid globally and shared by every node.
func (s *solver) solveRootWithCuts(root *node) (lp.Status, error) {
	gr, err := lp.SolveGomory(&s.work.LP, nil, s.opts.RootCutRounds)
	if err != nil {
		return 0, err
	}
	if len(gr.Cuts) > 0 {
		s.base = withRows(&s.work.LP, gr.Cuts)
		s.stats.Cuts = len(gr.Cuts)
	}
	s.stats.CutRounds = gr.Rounds
	// The Gomory solution (and its basis) belongs to the cut-augmented
	// problem, which is exactly the node's LP from here on.
	s.setRelax(root, gr.Solution)
	return root.relax.Status, nil
}

// withRows returns p with rows appended. The result shares p's rows,
// which no solve writes, and its bounds; the capped slice makes the append
// copy the row headers, so p itself never changes.
func withRows(p *lp.Problem, rows []lp.Constraint) *lp.Problem {
	q := *p
	m := len(p.Constraints)
	q.Constraints = append(p.Constraints[:m:m], rows...)
	return &q
}

// solveRoot solves the root relaxation of the base problem, warm from
// seed when one is given (a basis that no longer fits falls back cold
// inside lp.SolveFrom), and stores bound/solution.
func (s *solver) solveRoot(root *node, seed *lp.Basis) (lp.Status, error) {
	sol, err := lp.SolveFrom(s.base, seed, nil)
	if err != nil {
		return 0, err
	}
	s.setRelax(root, sol)
	return sol.Status, nil
}

// solveRelax solves a child's LP relaxation under the bounds lo/hi
// through the tree's model and stores bound/solution. It re-optimizes
// from the parent basis restored in start via the dual simplex, and
// solves cold when start is nil (DisableWarmLP) or the restore was
// rejected, inside Model.SolveFrom. ok reports whether the LP settled the
// child: optimal or infeasible.
func (s *solver) solveRelax(c *child, lo, hi []float64, start *lp.Start) (st lp.Status, ok bool) {
	sol, err := s.model.SolveFrom(lo, hi, start, nil)
	if err != nil {
		return 0, false
	}
	s.countLP(sol)
	c.relax, c.bound = sol, sol.Objective+s.objOff
	if failChildLP != nil && failChildLP() {
		return lp.IterLimit, false
	}
	return sol.Status, sol.Status == lp.Optimal || sol.Status == lp.Infeasible
}

// failChildLP, when a test sets it, is asked after every child LP solve;
// true makes that solve count as unresolved.
var failChildLP func() bool

// setRelax records a node's solved relaxation and its bound, and folds the
// solve into the statistics.
func (s *solver) setRelax(n *node, sol lp.Solution) {
	s.countLP(sol)
	n.relax = sol
	n.bound = sol.Objective + s.objOff
}

// countLP folds one node LP solve into the search statistics.
func (s *solver) countLP(sol lp.Solution) {
	s.stats.LPIterations += sol.Iterations
	s.stats.LPSolves++
	if sol.Warm {
		s.stats.WarmLPSolves++
	}
}

// checkFeasible verifies integrality and constraints for a candidate and
// returns its objective.
func (s *solver) checkFeasible(x []float64) (float64, error) {
	if len(x) != s.p.LP.NumVars() {
		return 0, fmt.Errorf("candidate has %d variables, want %d", len(x), s.p.LP.NumVars())
	}
	for j, isInt := range s.p.Integer {
		if lo := s.p.LP.LowerBound(j); x[j] < lo-intTol {
			return 0, fmt.Errorf("variable %d below its lower bound: %g < %g", j, x[j], lo)
		}
		if hi := s.p.LP.UpperBound(j); x[j] > hi+intTol {
			return 0, fmt.Errorf("variable %d above its upper bound: %g > %g", j, x[j], hi)
		}
		if isInt {
			if d := math.Abs(x[j] - math.Round(x[j])); d > intTol {
				return 0, fmt.Errorf("variable %d not integral: %g", j, x[j])
			}
		}
	}
	const tol = 1e-6
	for i := range s.p.LP.Constraints {
		c := &s.p.LP.Constraints[i]
		dot := c.Dot(x)
		switch c.Rel {
		case lp.LE:
			if dot > c.RHS+tol {
				return 0, fmt.Errorf("constraint %d violated: %g > %g", i, dot, c.RHS)
			}
		case lp.GE:
			if dot < c.RHS-tol {
				return 0, fmt.Errorf("constraint %d violated: %g < %g", i, dot, c.RHS)
			}
		case lp.EQ:
			if math.Abs(dot-c.RHS) > tol {
				return 0, fmt.Errorf("constraint %d violated: %g != %g", i, dot, c.RHS)
			}
		}
	}
	obj := 0.0
	for j, c := range s.p.LP.Objective {
		obj += c * x[j]
	}
	return obj, nil
}

// accept installs a new incumbent.
func (s *solver) accept(x []float64, obj float64) {
	s.bestX = x
	s.bestObj = obj
	s.hasBest = true
	s.trace.Incumbent(obj)
}

func (s *solver) optIncumbent() []float64 {
	if s.opts.Incumbent == nil {
		return nil
	}
	return append([]float64(nil), s.opts.Incumbent...)
}

func (s *solver) checkLimits() error {
	if s.cancelled() {
		return errLimit
	}
	if s.opts.NodeLimit > 0 && s.stats.Nodes >= s.opts.NodeLimit {
		return errLimit
	}
	return nil
}

// cancelled reports whether the solve context has been cancelled. It is
// sticky.
func (s *solver) cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// limitResult assembles the result of a search that could not finish its
// proof (node limit, context cancellation or deadline, or an unresolved
// child left below the incumbent): the incumbent so far, Status Feasible
// or NoSolution, and the tightest proven bound given the open frontier
// and the set-aside children.
func (s *solver) limitResult(lowest float64) Result {
	res := s.result(0)
	res.Bound = math.Min(math.Min(lowest, s.aside), res.Bound)
	if s.hasBest {
		res.Status = Feasible
	} else {
		res.Status = NoSolution
	}
	res.Gap = gap(res.Objective, res.Bound)
	return res
}

func (s *solver) result(st Status) Result {
	r := Result{
		Status:      st,
		Elapsed:     time.Since(s.start),
		SearchStats: s.stats,
		RootLPWarm:  s.rootWarm,
	}
	if s.hasBest {
		r.X = s.bestX
		r.Objective = s.bestObj
		r.Bound = s.bestObj
	} else {
		r.Objective = math.Inf(1)
		r.Bound = math.Inf(-1)
	}
	return r
}

func gap(obj, bound float64) float64 {
	if math.IsInf(obj, 1) || math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	d := obj - bound
	if d <= 0 {
		return 0
	}
	return d / math.Max(1, math.Abs(obj))
}
