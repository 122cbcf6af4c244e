package lp

import (
	"errors"
	"sync"
)

// Typed error sentinels for the non-optimal solve outcomes. The solver
// reports outcomes through Solution.Status; Status.Err maps a status to
// its sentinel so callers can escalate with %w and test with errors.Is
// instead of matching strings.
var (
	// ErrInfeasible: the constraints admit no point within the bounds.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded: the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrIterLimit: the pivot cap was hit before optimality.
	ErrIterLimit = errors.New("lp: iteration limit")
)

// Err returns the typed sentinel for a non-Optimal status, nil for
// Optimal (and for unknown status values).
func (s Status) Err() error {
	switch s {
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	}
	return nil
}

// workspaces recycles solver workspaces across solves. A workspace is
// owned by exactly one solve between get and put, so concurrent solves
// never share one.
var workspaces = sync.Pool{New: func() any { return new(sparseSolver) }}

func getWorkspace() *sparseSolver { return workspaces.Get().(*sparseSolver) }

func putWorkspace(sp *sparseSolver) {
	// Do not pin the caller's problem or model while pooled.
	sp.md, sp.own.p = nil, nil
	sp.csc, sp.obj, sp.b = csc{}, nil, nil
	sp.f.clear() // stop reading a caller's Start
	workspaces.Put(sp)
}

// Solve minimizes the problem with a cold two-phase solve. opts is
// ignored (see Options).
func Solve(p *Problem, opts *Options) (Solution, error) {
	return SolveFrom(p, nil)
}

// SolveFrom re-optimizes p starting from a basis snapshotted on a related
// problem: same structural variables, constraint rows that extend the
// snapshot's rows (identical prefix, new rows appended, right-hand sides
// free to move), and variable bounds free to move — the branch-and-bound
// child shape of one tightened bound included. A nil or non-fitting
// snapshot, and any rejected warm start, fall back transparently to the
// cold two-phase solve; Solution.Warm reports which path produced the
// result, and the pivots a rejected warm attempt spent are folded into
// Iterations so warm-vs-cold comparisons stay honest. Re-solves that
// differ only in their bounds are cheaper through a Model.
func SolveFrom(p *Problem, b *Basis) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	sp := getWorkspace()
	defer putWorkspace(sp)
	var sol Solution
	sp.run(&sol, p, b)
	return sol, nil
}

// run compiles p into the workspace's own model, restores b there into
// the workspace's own Start, and solves into sol; see runModel.
func (sp *sparseSolver) run(sol *Solution, p *Problem, b *Basis) {
	sp.own.compile(p)
	sp.own.restore(&sp.start, b)
	sp.runModel(sol, &sp.own, p.Lo, p.Hi, &sp.start)
}

// runModel loads md under the bounds lo/hi and solves it into sol, warm
// from st when st holds a basis restored on md. On return the workspace
// holds the final basis and factorization of the reported solve, which
// SolveGomory reads its cut rows from.
func (sp *sparseSolver) runModel(sol *Solution, md *Model, lo, hi []float64, st *Start) {
	sp.load(md, lo, hi)
	if !st.valid(md) {
		sp.solve(sol)
		return
	}
	if sp.warm(sol, st) {
		return
	}
	wasted := sp.pivots
	sp.load(md, lo, hi)
	sp.solve(sol)
	sol.Iterations += wasted
}
