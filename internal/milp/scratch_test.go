package milp

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// reducedDiff describes how two presolve outcomes differ, bit for bit:
// status, statistics, offset, postsolve map, mapped basis and reduced
// problem. It returns "" when they are identical.
func reducedDiff(a, b *Reduced) string {
	switch {
	case a.Infeasible != b.Infeasible:
		return fmt.Sprintf("infeasible %v vs %v", a.Infeasible, b.Infeasible)
	case a.Stats != b.Stats:
		return fmt.Sprintf("stats %+v vs %+v", a.Stats, b.Stats)
	case math.Float64bits(a.ObjOffset) != math.Float64bits(b.ObjOffset):
		return fmt.Sprintf("offset %v vs %v", a.ObjOffset, b.ObjOffset)
	case a.origN != b.origN || !slices.Equal(a.keep, b.keep):
		return fmt.Sprintf("keep %v of %d vs %v of %d", a.keep, a.origN, b.keep, b.origN)
	case (a.basis == nil) != (b.basis == nil) || !slices.Equal(a.basis, b.basis):
		return fmt.Sprintf("basis %v vs %v", a.basis, b.basis)
	case !slices.Equal(a.isFixed, b.isFixed) || !slices.Equal(bits(a.fixedVal), bits(b.fixedVal)):
		return fmt.Sprintf("fixed %v at %v vs %v at %v", a.isFixed, a.fixedVal, b.isFixed, b.fixedVal)
	case (a.P == nil) != (b.P == nil):
		return fmt.Sprintf("problem %v vs %v", a.P != nil, b.P != nil)
	case a.P == nil:
		return ""
	}
	p, q := a.P, b.P
	switch {
	case !slices.Equal(p.Integer, q.Integer):
		return fmt.Sprintf("integer %v vs %v", p.Integer, q.Integer)
	case !slices.Equal(bits(p.LP.Objective), bits(q.LP.Objective)):
		return fmt.Sprintf("objective %v vs %v", p.LP.Objective, q.LP.Objective)
	case !slices.Equal(bits(p.LP.Lo), bits(q.LP.Lo)) || !slices.Equal(bits(p.LP.Hi), bits(q.LP.Hi)):
		return fmt.Sprintf("bounds %v %v vs %v %v", p.LP.Lo, p.LP.Hi, q.LP.Lo, q.LP.Hi)
	case len(p.LP.Constraints) != len(q.LP.Constraints):
		return fmt.Sprintf("%d rows vs %d", len(p.LP.Constraints), len(q.LP.Constraints))
	}
	for i := range p.LP.Constraints {
		r, s := &p.LP.Constraints[i], &q.LP.Constraints[i]
		if r.Rel != s.Rel || math.Float64bits(r.RHS) != math.Float64bits(s.RHS) ||
			!slices.Equal(r.Idx, s.Idx) || !slices.Equal(bits(r.Val), bits(s.Val)) {
			return fmt.Sprintf("row %d: %+v vs %+v", i, *r, *s)
		}
	}
	return ""
}

// presolveCase is one presolve input: a problem, a cutoff and a root
// basis (or nil).
type presolveCase struct {
	name   string
	p      *Problem
	cutoff float64
	basis  []int32
}

// TestPresolveScratchReuse: one pooled scratch presolves problem A, then
// B, then an infeasible C, then A again. Each outcome — the reduced
// problem, the postsolve map, the fixed values, the mapped basis and the
// statistics — is bit-identical to a fresh Presolve of the same input,
// although every run overwrites the last one's storage, across shapes
// that grow and shrink it.
func TestPresolveScratchReuse(t *testing.T) {
	a := presolveCase{"recipe", recipeProblem(), 19, recipeBasis()}
	b := presolveCase{"fig3", fig3MILP(t, 100), 900, nil}
	infeasible := recipeProblem()
	infeasible.LP.Hi = []float64{5, 5, math.Inf(1), math.Inf(1)}
	c := presolveCase{"infeasible", infeasible, math.Inf(1), nil}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	reduced := 0
	for _, tc := range []presolveCase{a, b, c, a, b} {
		want := presolve(tc.p, tc.cutoff, tc.basis)
		got := sc.pres.run(tc.p, tc.cutoff, tc.basis)
		if d := reducedDiff(got, want); d != "" {
			t.Fatalf("%s through the scratch differs from a fresh presolve: %s", tc.name, d)
		}
		if !got.Infeasible && !got.Stats.empty() {
			reduced++
		}
		sc.pres.release()
	}
	if reduced < 4 || !presolve(c.p, c.cutoff, nil).Infeasible {
		t.Fatalf("%d of 4 feasible runs reduced anything, or C is not infeasible: the cases no longer exercise the reuse", reduced)
	}
}

// TestPresolveScratchAllocs pins a warm re-solve's presolve at no
// allocation once the scratch has grown: the fig3 recipe MIP with an
// incumbent's cutoff and the structural root basis, as a warm re-solve
// presolves it, through the pooled scratch a search draws.
func TestPresolveScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p, basis := fig3MILP(t, 100), make([]int32, 0)
	for i := range p.LP.Constraints {
		// x_q is basic in type q's row, the first ρ in the total row.
		if i == 0 {
			basis = append(basis, 0)
		} else {
			basis = append(basis, int32(p.LP.NumVars()-len(p.LP.Constraints)+i))
		}
	}
	red := presolve(p, 900, basis)
	if red.Infeasible || red.Stats.empty() || red.basis == nil {
		t.Fatalf("presolve reduced nothing: %+v", red.Stats)
	}
	allocs := testing.AllocsPerRun(50, func() {
		sc := scratches.Get().(*scratch)
		sc.pres.run(p, 900, basis)
		sc.pres.release()
		scratches.Put(sc)
	})
	if allocs > 0 {
		t.Errorf("a presolve through the pooled scratch allocates %v objects, want 0", allocs)
	}
}

// TestConcurrentSearchesShareScratch: several searches of different
// problems run at once, drawing their scratch — free lists of results and
// nodes, the Start, the presolve state and the reduced problem — from
// one pool, so each search inherits storage another one sized and wrote.
// Each must give, bit for bit, the answer and the counters it gives
// alone. Run it under -race.
func TestConcurrentSearchesShareScratch(t *testing.T) {
	type job struct {
		name string
		p    *Problem
		opts *Options
	}
	fig3 := fig3MILP(t, 100)
	jobs := []job{
		{"fig3", fig3, &Options{RootCutRounds: 4, Presolve: true}},
		{"fig3-warm", fig3, &Options{Presolve: true, Incumbent: fig3Incumbent(t, fig3)}},
		{"recipe-basis", recipeProblem(), &Options{Presolve: true, RootBasis: recipeBasis(), Incumbent: []float64{10, 5, 1, 3}}},
		{"hardcover", hardCoverMILP(9, 42), nil},
		{"cover4", coverProblem(), &Options{Presolve: true, RootCutRounds: 8}},
	}
	alone := make([]Result, len(jobs))
	for i, j := range jobs {
		alone[i] = solveOK(t, j.p, j.opts)
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(jobs); k++ {
				// Each worker walks the jobs from its own offset, so the
				// scratch a search draws was last sized by another problem.
				i := (k + w) % len(jobs)
				res, err := Solve(jobs[i].p, jobs[i].opts)
				switch {
				case err != nil:
					errs <- fmt.Sprintf("%s: %v", jobs[i].name, err)
				case !sameSearch(res, alone[i]) || math.Float64bits(res.Bound) != math.Float64bits(alone[i].Bound):
					errs <- fmt.Sprintf("%s: %+v (bound %v), alone %+v (bound %v)",
						jobs[i].name, res.SearchStats, res.Bound, alone[i].SearchStats, alone[i].Bound)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// fig3Incumbent is a feasible point of fig3MILP: its optimum, solved once.
func fig3Incumbent(t *testing.T, p *Problem) []float64 {
	t.Helper()
	res := solveOK(t, p, &Options{Presolve: true})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	return res.X
}
