// Parallel node expansion for the branch-and-bound search.
//
// The search proceeds in rounds. The coordinator pops up to Workers nodes
// from the best-bound heap (the frontier batch) and runs each round in
// three phases:
//
//  1. prepare (parallel over nodes): integral-leaf detection, the
//     rounding repair and branching-candidate selection — the probe list
//     of unreliable candidates and the best reliable one, scored from the
//     pseudocosts as they stood when the round began (see branch.go) —
//     and, for a node that branches, the restore of its optimal basis
//     into the lp.Start of its batch slot, once for all its children;
//  2. child solve (parallel over individual LP relaxations): every probe
//     of every batch node contributes two child LPs, flattened into one
//     task list — so even a frontier of one node fans out into up to
//     2·StrongBranch concurrent simplex solves while its candidates are
//     unreliable, and into none once they all are;
//  3. finish (coordinator, stable batch order): probe scoring and
//     pseudocost updates, the on-demand pair of a winning reliable
//     candidate, incumbent acceptance and child enqueueing.
//
// Determinism: workers never mutate shared search state — they write only
// their own slot of a positionally indexed result slice. All accept/prune
// decisions happen in phase 3 in the stable best-bound/seq order of the
// batch, and so do the pseudocost writes, which prepare only reads. So a
// fixed worker count is exactly reproducible run-to-run regardless of
// goroutine scheduling, and the optimal objective is identical for every
// worker count (batching only reorders which of several optimal points
// is found first). The atomic incumbent bound read by workers (curBest)
// only changes between rounds, so mid-round candidate filtering is
// deterministic too; finish re-checks every candidate against the live
// incumbent before accepting it.
//
// Warm starts keep these properties: a child LP solve is a pure function
// of (parent node, branch variable, direction) — the tree's compiled
// model, the parent's bound patches and its optimal basis are all frozen
// once the parent is solved and only read afterwards, and every
// Model.SolveFrom holds its own pooled workspace, so workers share no
// mutable simplex state. The parent's Start is a pure function of the
// model and that basis; prepare writes it into the node's own slot, and
// the rest of the round (phase 2 on the workers, phase 3's on-demand
// pairs and lazy solves) only reads it, until the next round's prepare
// reuses the slot. A given child therefore gets the same relaxation
// (same pivots, same vertex) whether it is solved eagerly on a pool
// worker or lazily on the sequential path.
//
// With Workers == 1 no pool is started: prepare and finish run inline and
// child LPs are solved lazily inside the selection scan, so the early
// break on a fully pruned probe pair saves the remaining probes' solves.
// Both paths run the same rule: with one node per round, the sequential
// search simply sees the pseudocosts of every earlier node.
package milp

import (
	"container/heap"
	"math"
	"runtime"

	"rentmin/internal/lp"
)

// candidate is an integer-feasible point found during node preparation.
type candidate struct {
	x   []float64
	obj float64
}

// prep is the phase-1 outcome for one node: incumbent candidates found
// (from an integral relaxation or the rounding repair), the branching
// candidates whose children phase 2 must solve (probes, best estimate
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

// workerCount resolves Options.Workers: 0 means GOMAXPROCS.
func (s *solver) workerCount() int {
	w := 0
	if s.opts != nil {
		w = s.opts.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// runAll executes n positionally independent tasks, on the pool when it
// is running and inline otherwise.
func (s *solver) runAll(n int, task func(i int)) {
	if s.pool == nil || n == 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	s.pool.Do(n, task)
}

// popBatch removes up to max expandable nodes from the heap in best-bound
// order. It stops early when the heap minimum is prunable (every remaining
// node is then prunable too) and never exceeds the node limit.
func (s *solver) popBatch(h *nodeHeap, max int) []*node {
	if s.opts != nil && s.opts.NodeLimit > 0 {
		if rem := s.opts.NodeLimit - s.stats.Nodes; rem < max {
			max = rem
		}
	}
	var batch []*node
	for len(batch) < max && h.Len() > 0 {
		if s.pruned((*h)[0].bound) {
			break
		}
		batch = append(batch, heap.Pop(h).(*node))
	}
	return batch
}

// prepare runs phase 1 for one node, the slot-th of its batch. It reads
// only immutable solver state plus the atomic incumbent bound, and writes
// only its own Start slot, so it is safe on pool workers.
func (s *solver) prepare(n *node, slot int) prep {
	p := prep{n: n}
	frac := s.fractionalVar(n.relax.X)
	if frac < 0 {
		// Integer feasible: the node is a leaf. Under presolve the
		// relaxation point lives in reduced space; lift it (and price it
		// against the original objective) before it can become an
		// incumbent.
		p.integral = true
		if s.red == nil {
			if obj := n.relax.Objective; obj < s.curBest()-1e-9 {
				p.candidates = append(p.candidates, candidate{
					x:   append([]float64(nil), n.relax.X...),
					obj: obj,
				})
			}
			return p
		}
		x, obj := s.liftLeaf(n.relax.X)
		if obj < s.curBest()-1e-9 {
			p.candidates = append(p.candidates, candidate{x: x, obj: obj})
		}
		return p
	}
	if s.opts != nil && s.opts.Rounder != nil {
		// The rounder works in original-variable space (it encodes model
		// knowledge, e.g. solve.RoundingRepair's recipe rounding), so the
		// reduced point is lifted first; its candidate is checked against
		// the original problem as usual.
		rx := n.relax.X
		if s.red != nil {
			rx = s.red.Postsolve(rx)
		}
		if cand, ok := s.opts.Rounder(rx); ok {
			if obj, err := s.checkFeasible(cand); err == nil && obj < s.curBest()-1e-9 {
				p.candidates = append(p.candidates, candidate{x: cand, obj: obj})
			}
		}
	}
	if k := s.strongBranchLimit(); k > 0 {
		p.probes, p.reliable = s.branchCandidates(n.relax.X, k)
	} else {
		p.probes = []branchCand{{j: frac, k: -1}}
		p.reliable.j = -1
	}
	if s.starts != nil {
		// The node branches: restore its basis once for all its children.
		p.start = &s.starts[slot]
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

// prepareAll runs phase 1 over the batch.
func (s *solver) prepareAll(batch []*node) []prep {
	preps := make([]prep, len(batch))
	s.runAll(len(batch), func(i int) { preps[i] = s.prepare(batch[i], i) })
	return preps
}

// solveChild builds and solves one child of the prepared node: dir 0
// adds x_j <= floor, dir 1 adds x_j >= ceil.
func (s *solver) solveChild(p *prep, j, dir int) *node {
	v := p.n.relax.X[j]
	if dir == 0 {
		return s.buildChild(p.n, p.start, j, math.Inf(-1), math.Floor(v))
	}
	return s.buildChild(p.n, p.start, j, math.Ceil(v), math.Inf(1))
}

// solveChildrenAll runs phase 2: every (node, probe, direction) child LP
// of the round, flattened into one task list so the pool stays saturated
// even when the frontier is narrow. It returns kids[i][vi] = {down, up}
// for preps[i].probes[vi], plus per-node counts of the child solves
// actually performed (the waste accounting of finish). Once
// the solve context is cancelled, workers skip the remaining child tasks
// — that is what stops a search mid-round instead of at the next
// between-rounds limit check; the caller detects the cancellation and
// abandons the partially solved round. On the sequential path it returns
// nil and finish solves children lazily instead, preserving the early
// break's LP-solve savings.
func (s *solver) solveChildrenAll(preps []prep) ([][][2]*node, []int) {
	if s.pool == nil {
		return nil, nil
	}
	kids := make([][][2]*node, len(preps))
	type job struct{ i, vi, dir int }
	var jobs []job
	for i, p := range preps {
		kids[i] = make([][2]*node, len(p.probes))
		for vi := range p.probes {
			jobs = append(jobs, job{i, vi, 0}, job{i, vi, 1})
		}
	}
	ran := make([]bool, len(jobs)) // positional writes, one task each
	s.runAll(len(jobs), func(t int) {
		if s.cancelled() {
			return
		}
		jb := jobs[t]
		p := &preps[jb.i]
		kids[jb.i][jb.vi][jb.dir] = s.solveChild(p, p.probes[jb.vi].j, jb.dir)
		ran[t] = true
	})
	solved := make([]int, len(preps))
	for t, ok := range ran {
		if ok {
			solved[jobs[t].i]++
		}
	}
	return kids, solved
}

// finish runs phase 3 for one node: candidates are re-checked against the
// live incumbent and accepted in order, then the surviving children of
// the selected branching variable are enqueued (enqueue prunes against
// the updated incumbent). Only the coordinator calls finish, in stable
// batch order. kids is the node's phase-2 output, or nil to solve
// children on demand.
//
// A node that became prunable mid-round (an earlier finish of the same
// round improved the incumbent) is dropped wholesale — the sequential
// search would have pruned it at pop time and never expanded it, so
// keeping its candidates or children would make the incumbent trajectory
// depend on the worker count. The speculative phase-2 LP solves are the
// only cost of that race, never a behavioral difference; solvedKids (the
// node's phase-2 solve count) is folded into Result.WastedLPSolves so the
// waste ratio of that speculation is observable.
func (s *solver) finish(h *nodeHeap, p prep, kids [][2]*node, solvedKids int) {
	if s.pruned(p.n.bound) {
		s.stats.WastedLPSolves += solvedKids
		return
	}
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
	// with no children; a pair with one infeasible child scores +Inf and
	// ends the scan too, since no later probe could beat it except a
	// fully pruned pair. A reliable candidate whose estimate beats every
	// probe is branched on, its pair solved only now.
	var bestPair [2]*node
	bestScore := math.Inf(-1)
	for vi, c := range p.probes {
		var down, up *node
		if kids != nil {
			down, up = kids[vi][0], kids[vi][1]
		} else {
			down, up = s.solveChild(&p, c.j, 0), s.solveChild(&p, c.j, 1)
		}
		s.observe(p.n, c, down, up)
		if down == nil && up == nil {
			return // both children infeasible: the node is fully pruned
		}
		score := pairScore(p.n, down, up)
		if score > bestScore {
			bestScore = score
			bestPair = [2]*node{down, up}
		}
		if math.IsInf(score, 1) {
			break // one child infeasible: the node keeps a single child
		}
	}
	if c := p.reliable; c.j >= 0 && c.score > bestScore {
		down, up := s.solveChild(&p, c.j, 0), s.solveChild(&p, c.j, 1)
		s.observe(p.n, c, down, up)
		bestPair = [2]*node{down, up}
	}
	for _, c := range bestPair {
		if c != nil {
			s.enqueue(h, c)
		}
	}
}
