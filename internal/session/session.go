// Package session implements online re-optimization: a long-lived
// session owns a mutable core.Problem plus its current optimal
// allocation, accepts a stream of typed events (recipe arrival and
// departure, target changes, machine-type price changes, outages and
// restores — the same mutation vocabulary internal/stream simulates),
// applies each event as a problem delta, and re-solves warm from the
// previous optimum: the prior allocation, repaired to feasibility for
// the mutated problem, seeds the branch-and-bound incumbent (a presolve
// cutoff), and the root LP starts from the recipe model's structural
// optimal basis, which solve names for every warm-started solve, and
// runs no root cuts. A basis the mutated problem rejects falls back to a
// cold root solve transparently; every Resolve reports which path ran.
// The re-solve is exact, so each event's cost equals a cold solve of the
// same mutated problem — the property the fuzz harness and the CI
// session-smoke job assert.
//
// Committed problems share their graphs: an event copies only what it
// changes (the graph list for an arrival or departure, the machine list
// for a price change), and nothing writes a committed graph, machine
// list or offline set in place.
package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rentmin/internal/core"
	"rentmin/internal/milp"
	"rentmin/internal/solve"
)

// EventKind names a session mutation.
type EventKind string

const (
	// RecipeArrival appends a new recipe graph to the application.
	RecipeArrival EventKind = "recipe_arrival"
	// RecipeDeparture removes the graph at Event.GraphIndex (the last
	// remaining graph cannot depart; core.Problem requires one).
	RecipeDeparture EventKind = "recipe_departure"
	// TargetChange sets the prescribed total throughput to Event.Target.
	TargetChange EventKind = "target_change"
	// PriceChange sets machine type Event.Type's hourly cost to Event.Price.
	PriceChange EventKind = "price_change"
	// Outage takes machine type Event.Type offline: graphs that need the
	// type are excluded from the re-solve (their throughput drops to
	// zero) until a Restore brings it back. Idempotent.
	Outage EventKind = "outage"
	// Restore brings machine type Event.Type back online. Idempotent.
	Restore EventKind = "restore"

	// created is the Kind of the initial solve's Resolve.
	created EventKind = "create"
)

// Resolve statuses.
const (
	StatusOptimal    = "optimal"
	StatusFeasible   = "feasible" // stopped by a limit; best incumbent, unproven
	StatusInfeasible = "infeasible"
)

var (
	// ErrClosed is returned by Apply on a closed session.
	ErrClosed = errors.New("session: closed")
	// ErrInvalidEvent wraps every event-validation failure. An invalid
	// event mutates nothing: the session state is exactly as before.
	ErrInvalidEvent = errors.New("session: invalid event")
)

// Event is one session mutation. Exactly the fields its Kind names are
// read; the rest are ignored.
type Event struct {
	Kind       EventKind   `json:"kind"`
	Graph      *core.Graph `json:"graph,omitempty"`       // RecipeArrival
	GraphIndex int         `json:"graph_index,omitempty"` // RecipeDeparture
	Target     int         `json:"target,omitempty"`      // TargetChange
	Type       int         `json:"type,omitempty"`        // PriceChange, Outage, Restore
	Price      int         `json:"price,omitempty"`       // PriceChange
}

// Options tunes a session's re-solves.
type Options struct {
	// ILP configures every re-solve. Leave WarmStart unset: the session
	// fills it from the previous optimum.
	ILP solve.ILPOptions
	// DisableWarm forces every re-solve cold — no incumbent seed, no
	// structural root basis (ablation and the cold benchmark baseline).
	DisableWarm bool
}

// Resolve is the outcome of applying one event (or of the initial solve).
type Resolve struct {
	// Seq is the event's 1-based position in the session's stream (0 for
	// the initial solve at creation).
	Seq    int
	Kind   EventKind
	Status string
	// Alloc is the committed allocation over the FULL problem shape:
	// graphs excluded by an outage appear with zero throughput, offline
	// types with zero machines. Zero-valued when Status is infeasible.
	// It is the Resolve's own copy: the session shares none of it.
	Alloc core.Allocation
	// Warm reports whether the re-solve was seeded from the previous
	// optimum (incumbent cutoff + structural root basis). The initial
	// solve, trivial zero-target resolves, and infeasible resolves are
	// cold.
	Warm bool
	// RootLPWarm reports whether the root LP started from the structural
	// basis (false when the re-solve was cold, presolve settled it
	// without a root LP, or the basis was rejected and the root solved
	// cold).
	RootLPWarm bool
	// Churn is the solution-churn cost of this event: Σ_q |Δ machines of
	// type q| between the previous and the new committed allocation.
	Churn int
	// SolveTime is the wall clock of the re-solve (zero for trivial paths).
	SolveTime time.Duration
	// SearchStats is the re-solve's search effort (zero for trivial paths).
	milp.SearchStats
}

// State is a snapshot of a session, served as is (after the session's
// ID) by the daemon's session endpoints.
type State struct {
	// Events counts successfully applied events (invalid events don't
	// count): 0 right after creation, whose solve is Seq 0. Graphs and
	// Tasks size the current problem; Target is the current target.
	Events int `json:"events"`
	Graphs int `json:"graphs"`
	Tasks  int `json:"tasks"`
	Target int `json:"target"`
	// Feasible is false only while every graph is excluded by outages and
	// the target is positive; Cost and Alloc are the committed optimum
	// otherwise.
	Feasible bool            `json:"feasible"`
	Cost     int64           `json:"cost"`
	Alloc    core.Allocation `json:"allocation"`
	// Offline lists the machine types currently offline, ascending.
	Offline []int `json:"offline,omitempty"`
	// WarmResolves/ColdResolves split all resolves (including the initial
	// solve) by seeding path; ChurnMoves/ChurnBase accumulate machine
	// moves and post-event fleet sizes, and ChurnRatio is moves per
	// fleet machine (0 while no machine was ever allocated).
	WarmResolves int     `json:"warm_resolves"`
	ColdResolves int     `json:"cold_resolves"`
	ChurnMoves   int64   `json:"churn_moves"`
	ChurnRatio   float64 `json:"churn_ratio"`
	ChurnBase    int64   `json:"-"`
}

// Session is a long-lived re-optimization session. All methods are safe
// for concurrent use; concurrent Apply calls serialize in arrival order
// at the session mutex.
type Session struct {
	mu   sync.Mutex
	opts Options

	prob    *core.Problem // full mutated problem (offline types NOT applied)
	offline []bool        // per machine type

	feasible bool
	alloc    core.Allocation // full shape; meaningful only when feasible

	seq        int
	warm, cold int
	churnMoves int64
	churnBase  int64
	closed     bool
}

// New validates and adopts a clone of p, solves it cold, and returns the
// session plus the initial Resolve (Seq 0, Kind "create").
func New(ctx context.Context, p *core.Problem, opts Options) (*Session, *Resolve, error) {
	if p == nil {
		return nil, nil, errors.New("session: nil problem")
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("session: %w", err)
	}
	s := &Session{opts: opts}
	res, err := s.resolve(ctx, p.Clone(), make([]bool, p.NumTypes()), nil, created, 0)
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}

// Apply validates ev, applies it as a problem delta, re-solves, and
// commits the new state. On error (invalid event, cancelled or otherwise
// unfinished solve) the session state is unchanged.
func (s *Session) Apply(ctx context.Context, ev Event) (*Resolve, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	work, offline, seed, err := s.mutate(ev)
	if err != nil {
		return nil, err
	}
	return s.resolve(ctx, work, offline, seed, ev.Kind, s.seq+1)
}

// Validate checks ev's operands against the session's current problem:
// the error Apply would return for them, without solving. It also
// returns the problem's size, its recipe graphs and the tasks across
// them, read under the same lock. An event that passes may still fail in
// Apply when another event commits in between.
func (s *Session) Validate(ev Event) (graphs, tasks int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prob.NumGraphs(), s.prob.NumTasks(), s.validate(ev)
}

// validate is Validate for a caller that holds s.mu.
func (s *Session) validate(ev Event) error {
	q, nj := s.prob.NumTypes(), s.prob.NumGraphs()
	switch ev.Kind {
	case RecipeArrival:
		if ev.Graph == nil {
			return fmt.Errorf("%w: recipe_arrival needs a graph", ErrInvalidEvent)
		}
		if err := ev.Graph.Validate(q); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidEvent, err)
		}
	case RecipeDeparture:
		if j := ev.GraphIndex; j < 0 || j >= nj {
			return fmt.Errorf("%w: graph index %d out of range [0,%d)", ErrInvalidEvent, j, nj)
		}
		if nj == 1 {
			return fmt.Errorf("%w: the last graph cannot depart", ErrInvalidEvent)
		}
	case TargetChange:
		if ev.Target < 0 {
			return fmt.Errorf("%w: negative target %d", ErrInvalidEvent, ev.Target)
		}
	case PriceChange, Outage, Restore:
		if ev.Type < 0 || ev.Type >= q {
			return fmt.Errorf("%w: machine type %d out of range [0,%d)", ErrInvalidEvent, ev.Type, q)
		}
		if ev.Kind == PriceChange && ev.Price < 0 {
			return fmt.Errorf("%w: negative price %d", ErrInvalidEvent, ev.Price)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalidEvent, ev.Kind)
	}
	return nil
}

// mutate validates ev and applies it to the session's problem, offline
// set and previous throughput vector (kept index-aligned with the
// mutated graph list so it can seed the re-solve). What ev changes is
// copied; the rest is shared with the committed state, which nothing
// writes in place. Caller holds s.mu.
func (s *Session) mutate(ev Event) (work *core.Problem, offline []bool, seed []int, err error) {
	if err := s.validate(ev); err != nil {
		return nil, nil, nil, err
	}
	w := *s.prob
	work, offline = &w, s.offline
	if s.feasible {
		seed = s.alloc.GraphThroughput
	}
	switch ev.Kind {
	case RecipeArrival:
		work.App.Graphs = append(slices.Clip(work.App.Graphs), ev.Graph.Clone())
		if seed != nil {
			seed = append(slices.Clip(seed), 0)
		}
	case RecipeDeparture:
		j := ev.GraphIndex
		work.App.Graphs = slices.Delete(slices.Clone(work.App.Graphs), j, j+1)
		if seed != nil {
			seed = slices.Delete(slices.Clone(seed), j, j+1)
		}
	case TargetChange:
		work.Target = ev.Target
	case PriceChange:
		work.Platform = work.Platform.Clone()
		work.Platform.Machines[ev.Type].Cost = ev.Price
	case Outage, Restore:
		offline = append([]bool(nil), offline...)
		offline[ev.Type] = ev.Kind == Outage
	}
	return work, offline, seed, nil
}

// effective returns the problem the solver sees for work with offline
// applied, plus the index in work of each graph it keeps. With nothing
// excluded that is work itself; otherwise a problem that shares work's
// graphs and platform.
func effective(work *core.Problem, offline []bool) (*core.Problem, []int) {
	idx := make([]int, 0, work.NumGraphs())
graphs:
	for j := range work.App.Graphs {
		for _, t := range work.App.Graphs[j].Tasks {
			if t.Type >= 0 && t.Type < len(offline) && offline[t.Type] {
				continue graphs
			}
		}
		idx = append(idx, j)
	}
	if len(idx) == len(work.App.Graphs) {
		return work, idx
	}
	eff := &core.Problem{
		App:      core.Application{Name: work.App.Name, Graphs: make([]core.Graph, 0, len(idx))},
		Platform: work.Platform,
		Target:   work.Target,
	}
	for _, j := range idx {
		eff.App.Graphs = append(eff.App.Graphs, work.App.Graphs[j])
	}
	return eff, idx
}

// resolve solves work (with offline applied) and commits the result.
// seed, when non-nil, is the previous optimum's throughput vector aligned
// with work's graph list. Caller holds s.mu (or owns s exclusively, as New
// does). On error nothing is committed.
func (s *Session) resolve(ctx context.Context, work *core.Problem, offline []bool, seed []int, kind EventKind, seq int) (*Resolve, error) {
	// An already-dead context commits nothing. Cancellation or a deadline
	// that lands mid-solve instead commits the best incumbent as
	// StatusFeasible.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	fullModel := core.NewCostModel(work)
	eff, effIdx := effective(work, offline)
	res := &Resolve{Seq: seq, Kind: kind}

	switch {
	case work.Target <= 0:
		// Nothing to produce: the zero allocation is trivially optimal.
		res.Status = StatusOptimal
		s.commit(work, offline, res, fullModel.NewAllocation(make([]int, fullModel.J)), true)
		return res, nil
	case len(effIdx) == 0:
		// Every graph needs an offline type and the target is positive:
		// the mutated problem has no feasible allocation. The mutation
		// still commits (a later Restore recovers), with the fleet
		// released — churn counts the drop to zero machines.
		res.Status = StatusInfeasible
		s.commit(work, offline, res, fullModel.NewAllocation(make([]int, fullModel.J)), false)
		return res, nil
	}

	// The solver's model covers the effective graphs only; with none
	// excluded, that is the full model.
	m := fullModel
	if eff != work {
		m = core.NewCostModel(eff)
	}

	iopts := s.opts.ILP
	if seed != nil && !s.opts.DisableWarm {
		iopts.WarmStart = warmSeed(m, effIdx, seed, work.Target)
		res.Warm = true
	}

	start := time.Now()
	r, err := solve.ILPContext(ctx, m, work.Target, &iopts)
	if err != nil {
		return nil, err
	}
	res.SolveTime = time.Since(start)
	res.SearchStats = r.SearchStats
	res.RootLPWarm = r.RootLPWarm

	switch r.Status {
	case milp.Optimal:
		res.Status = StatusOptimal
	case milp.Feasible:
		res.Status = StatusFeasible
	case milp.Infeasible:
		res.Status = StatusInfeasible
		res.Warm = false
		s.commit(work, offline, res, fullModel.NewAllocation(make([]int, fullModel.J)), false)
		return res, nil
	default:
		// A limit or cancellation hit before any incumbent: nothing to
		// commit, leave the session at its previous state.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("session: re-solve cancelled: %w", cerr)
		}
		return nil, fmt.Errorf("session: re-solve stopped before any solution (status %v)", r.Status)
	}

	// Lift the effective-problem allocation back to the full shape:
	// excluded graphs at zero throughput, offline types at zero machines.
	fullRho := make([]int, fullModel.J)
	for i, j := range effIdx {
		fullRho[j] = r.Alloc.GraphThroughput[i]
	}
	alloc := fullModel.NewAllocation(fullRho)
	if alloc.Cost != r.Alloc.Cost {
		return nil, fmt.Errorf("session: internal error: lifted cost %d != solved cost %d", alloc.Cost, r.Alloc.Cost)
	}
	s.commit(work, offline, res, alloc, true)
	return res, nil
}

// warmSeed maps the previous full-shape throughput vector onto the
// effective graphs and pads it back up to target with solve.PadToTarget
// (the RoundingRepair rule) so the seed is always a feasible incumbent —
// by construction it can never be rejected.
func warmSeed(m *core.CostModel, effIdx []int, prev []int, target int) []int {
	rho := make([]int, len(effIdx))
	for i, j := range effIdx {
		if j < len(prev) && prev[j] > 0 {
			rho[i] = prev[j]
		}
	}
	scratch := make([]int64, m.Q+m.J)
	solve.PadToTarget(m, rho, target, scratch[:m.Q], scratch[m.Q:])
	return rho
}

// commit installs a re-solve outcome and gives res its churn and its own
// copy of alloc. An infeasible outcome still commits the mutation, with
// the zero allocation, and the next resolve starts cold. Caller holds s.mu.
func (s *Session) commit(work *core.Problem, offline []bool, res *Resolve, alloc core.Allocation, feasible bool) {
	res.Churn = churn(s.alloc.Machines, alloc.Machines)
	s.prob = work
	s.offline = offline
	s.alloc = alloc
	s.feasible = feasible
	s.seq = res.Seq
	if res.Warm {
		s.warm++
	} else {
		s.cold++
	}
	fleet := 0
	for _, n := range alloc.Machines {
		fleet += n
	}
	s.churnMoves += int64(res.Churn)
	s.churnBase += int64(fleet)
	res.Alloc = alloc.Clone()
}

// churn is Σ_q |a_q − b_q| over machine counts (nil = all zeros).
func churn(prev, next []int) int {
	n := len(prev)
	if len(next) > n {
		n = len(next)
	}
	total := 0
	for q := 0; q < n; q++ {
		a, b := 0, 0
		if q < len(prev) {
			a = prev[q]
		}
		if q < len(next) {
			b = next[q]
		}
		if d := a - b; d < 0 {
			total -= d
		} else {
			total += d
		}
	}
	return total
}

// State returns a snapshot of the session.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Events:       s.seq,
		Graphs:       s.prob.NumGraphs(),
		Tasks:        s.prob.NumTasks(),
		Target:       s.prob.Target,
		Feasible:     s.feasible || s.prob.Target <= 0,
		Cost:         s.alloc.Cost,
		Alloc:        s.alloc.Clone(),
		WarmResolves: s.warm,
		ColdResolves: s.cold,
		ChurnMoves:   s.churnMoves,
		ChurnBase:    s.churnBase,
	}
	if s.churnBase > 0 {
		st.ChurnRatio = float64(s.churnMoves) / float64(s.churnBase)
	}
	for q, off := range s.offline {
		if off {
			st.Offline = append(st.Offline, q)
		}
	}
	return st
}

// Problem returns a clone of the full mutated problem (outages NOT
// applied; see EffectiveProblem).
func (s *Session) Problem() *core.Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prob.Clone()
}

// EffectiveProblem returns a clone of the problem the next re-solve
// would actually hand the solver — outage-excluded graphs dropped — plus
// the full-problem index of each retained graph. The graph list is empty
// while every graph is excluded; a cold solve of this problem is the
// session's correctness oracle.
func (s *Session) EffectiveProblem() (*core.Problem, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff, idx := effective(s.prob, s.offline)
	return eff.Clone(), idx
}

// Close marks the session closed (Apply fails with ErrClosed). State,
// Problem and EffectiveProblem keep working.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
