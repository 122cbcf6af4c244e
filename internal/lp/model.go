package lp

import (
	"math"
	"sync"
)

// Model is a linear program compiled once for many re-solves under
// different variable bounds: the branch-and-bound shape, where every node
// shares its tree's objective and rows and differs only in Lo/Hi. NewModel
// validates the problem and compiles the kernel's read-only view of it —
// the CSC of [A | I], the cost per column, the right-hand sides and the
// slack bounds that encode the row senses — so a re-solve through
// SolveFrom checks and loads only the bounds.
//
// A Model is read-only once built and safe for concurrent SolveFrom and
// Restore calls. Its buffers come from a process-wide pool; Release hands
// them back.
type Model struct {
	p    *Problem // the compiled problem; SolveGomory reads its rows
	m, n int      // constraint rows, structural variables
	// gen counts the compiles into this Model's buffers. The pool hands a
	// released Model out again under the same pointer, so a Start checks
	// the generation, not the pointer alone.
	gen uint64

	csc // CSC of [A | I]

	obj      []float64 // cost per column: c, then 0 for every slack
	b        []float64 // right-hand sides
	slo, shi []float64 // slack bounds per row: LE [0,inf), GE (-inf,0], EQ [0,0]
}

var models = sync.Pool{New: func() any { return new(Model) }}

// NewModel validates p and compiles it. The model holds its own copy of
// p's objective, rows and row senses; p's Lo and Hi are not part of it.
func NewModel(p *Problem) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	md := models.Get().(*Model)
	md.compile(p)
	return md, nil
}

// Release returns the model's buffers to the pool. The model must not be
// used afterwards, and no SolveFrom call on it may still be running.
func (md *Model) Release() {
	md.p = nil
	models.Put(md)
}

// SolveFrom solves the model under the variable bounds lo <= x <= hi into
// sol, warm from the basis st was restored from, exactly as the one-shot
// SolveFrom would solve the model's problem with Lo and Hi replaced, warm
// from that basis: the solver runs one way, so the two are bit-identical.
// A nil Start, one whose Restore failed, and one restored on another Model
// or before this Model's last compile solve cold. lo and hi follow the
// rules of Problem.Lo and Problem.Hi (nil takes the default); they are
// the only input validated here, and a rejected pair leaves sol
// untouched. st is only read, so concurrent SolveFrom calls may share it.
//
// sol is the caller's: SolveFrom overwrites it and reuses its buffers (X
// and Duals share one, Basis and its lists are the others), allocating only
// a buffer that is too short, so a re-solve into a reused result allocates
// nothing. The result is valid until the next solve into it, and X, Duals
// and Basis are meaningful only when its Status is Optimal (see Solution).
// Concurrent calls must solve into different results.
func (md *Model) SolveFrom(sol *Solution, lo, hi []float64, st *Start) error {
	if err := validateBounds(lo, hi, md.n); err != nil {
		return err
	}
	sp := getWorkspace()
	defer putWorkspace(sp)
	sp.runModel(sol, md, lo, hi, st)
	return nil
}

// Restore restores snapshot b on the model into st, reusing st's buffers:
// it refactorizes b's basis and prices every nonbasic column once, the
// work every re-solve from b would otherwise repeat, with the same code
// and minimum pivot the one-shot SolveFrom restores with. Bounds play no
// part, so st serves any bounds SolveFrom is given. When b is nil, does
// not fit the model or its basis is singular, st records the failure and
// SolveFrom solves cold. st must not be restored again while a SolveFrom
// reads it.
func (md *Model) Restore(st *Start, b *Basis) { md.restore(st, b) }

// compile fills the model from a validated problem, reusing its buffers.
// Both passes walk the sparse rows; the second walks them backwards so
// each column fills from its end, leaving every column's entries in
// increasing row order. Zero values are skipped.
func (md *Model) compile(p *Problem) {
	m, n := len(p.Constraints), p.NumVars()
	md.p, md.m, md.n = p, m, n
	md.gen++
	md.obj = resize(md.obj, n+m)
	copy(md.obj, p.Objective)
	md.b = resize(md.b, m)
	md.slo = resize(md.slo, m)
	md.shi = resize(md.shi, m)

	// Pass 1: ptr[j] counts column j's nonzeros (one per slack column),
	// then accumulates into the end offset of column j.
	ptr := resize(md.ptr, n+m+1)
	for i := range p.Constraints {
		c := &p.Constraints[i]
		for k, j := range c.Idx {
			if c.Val[k] != 0 {
				ptr[j]++
			}
		}
		ptr[n+i] = 1
	}
	for j := 1; j < n+m; j++ {
		ptr[j] += ptr[j-1]
	}
	nnz := ptr[n+m-1]
	ptr[n+m] = nnz
	ind := resize(md.ind, int(nnz))
	val := resize(md.val, int(nnz))

	// Pass 2: each nonzero steps its column's offset back by one, so
	// ptr[j] ends at the start of column j.
	for i := m - 1; i >= 0; i-- {
		c := &p.Constraints[i]
		ptr[n+i]--
		ind[ptr[n+i]], val[ptr[n+i]] = int32(i), 1
		for k, j := range c.Idx {
			if v := c.Val[k]; v != 0 {
				ptr[j]--
				ind[ptr[j]], val[ptr[j]] = int32(i), v
			}
		}
		md.b[i] = c.RHS
		switch c.Rel {
		case LE:
			md.slo[i], md.shi[i] = 0, math.Inf(1)
		case GE:
			md.slo[i], md.shi[i] = math.Inf(-1), 0
		case EQ:
			md.slo[i], md.shi[i] = 0, 0
		}
	}
	md.ptr, md.ind, md.val = ptr, ind, val
}
