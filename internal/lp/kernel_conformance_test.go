package lp

import (
	"math"
	"slices"
	"testing"
)

// Kernel conformance suite: one shared case table of degenerate, bounded,
// fixed, infeasible and unbounded shapes, every case solved by the sparse
// revised-simplex kernel through the public API. Each optimal case is then
// re-solved warm from its own basis, which must reproduce the cold point
// without a single pivot.

type conformanceCase struct {
	name   string
	p      *Problem
	status Status
	obj    float64 // checked when status == Optimal
}

func conformanceCases() []conformanceCase {
	inf := math.Inf(1)
	return []conformanceCase{
		{
			name: "covering",
			p: &Problem{
				Objective: []float64{10, 18, 7},
				Constraints: []Constraint{
					dense([]float64{1, 1, 1}, GE, 7),
					dense([]float64{1, 0, 2}, GE, 4),
				},
			},
			status: Optimal, obj: 49,
		},
		{
			name: "beale-cycling",
			p: &Problem{
				Objective: []float64{-0.75, 150, -0.02, 6},
				Constraints: []Constraint{
					dense([]float64{0.25, -60, -1.0 / 25, 9}, LE, 0),
					dense([]float64{0.5, -90, -1.0 / 50, 3}, LE, 0),
					dense([]float64{0, 0, 1, 0}, LE, 1),
				},
			},
			status: Optimal, obj: -0.05,
		},
		{
			name: "degenerate-ties",
			p: &Problem{
				Objective: []float64{-1, -1, -1},
				Constraints: []Constraint{
					dense([]float64{1, -1, 0}, LE, 1e-8),
					dense([]float64{1, 0, -1}, LE, 3e-8),
					dense([]float64{1, -1, 0}, LE, 2e-8),
					dense([]float64{0, 1, 0}, LE, 1),
					dense([]float64{0, 0, 1}, LE, 1),
					dense([]float64{1, 0, 0}, LE, 1),
				},
			},
			status: Optimal, obj: -3,
		},
		{
			name: "boxed",
			p: &Problem{
				Objective: []float64{-3, -5},
				Constraints: []Constraint{
					dense([]float64{1, 2}, LE, 14),
					dense([]float64{3, -1}, GE, 0),
				},
				Lo: []float64{0, 1},
				Hi: []float64{4, 6},
			},
			status: Optimal, obj: -37, // x=4 (box), y=5 (row 1)
		},
		{
			name: "fixed-variable",
			p: &Problem{
				Objective: []float64{2, 3, 1},
				Constraints: []Constraint{
					dense([]float64{1, 1, 1}, GE, 10),
				},
				Lo: []float64{0, 4, 0},
				Hi: []float64{inf, 4, inf}, // y fixed at 4
			},
			status: Optimal, obj: 18, // y=4 forced, z=6 covers the rest
		},
		{
			name: "negative-lower-bounds",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					dense([]float64{1, 1}, GE, -3),
					dense([]float64{1, -1}, LE, 4),
				},
				Lo: []float64{-5, -5},
				Hi: []float64{5, 5},
			},
			status: Optimal, obj: -3, // rest on the first row: x+y = -3
		},
		{
			name: "equality-rows",
			p: &Problem{
				Objective: []float64{1, 2, 4},
				Constraints: []Constraint{
					dense([]float64{1, 1, 1}, EQ, 6),
					dense([]float64{0, 1, 2}, EQ, 4),
				},
			},
			status: Optimal, obj: 10, // x=2, y=4, z=0
		},
		{
			name: "negative-rhs",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					dense([]float64{-1, -1}, LE, -4), // x+y >= 4
				},
			},
			status: Optimal, obj: 4,
		},
		{
			name: "infeasible-crossed-rows",
			p: &Problem{
				Objective: []float64{1},
				Constraints: []Constraint{
					dense([]float64{1}, GE, 5),
					dense([]float64{1}, LE, 2),
				},
			},
			status: Infeasible,
		},
		{
			name: "infeasible-bounds",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					dense([]float64{1, 1}, GE, 10),
				},
				Lo: []float64{0, 0},
				Hi: []float64{3, 3},
			},
			status: Infeasible,
		},
		{
			name: "unbounded",
			p: &Problem{
				Objective: []float64{-1, 0},
				Constraints: []Constraint{
					dense([]float64{0, 1}, LE, 5),
				},
			},
			status: Unbounded,
		},
		{
			name: "no-constraints",
			p: &Problem{
				Objective: []float64{3, 2},
				Lo:        []float64{1, -2},
				Hi:        []float64{10, 10},
			},
			status: Optimal, obj: -1, // each variable at its cheap bound
		},
	}
}

func TestKernelConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name+"/sparse", func(t *testing.T) {
			sol, err := Solve(tc.p, nil)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.Status != tc.status {
				t.Fatalf("status = %v, want %v", sol.Status, tc.status)
			}
			if tc.status != Optimal {
				return
			}
			if math.Abs(sol.Objective-tc.obj) > 1e-6 {
				t.Fatalf("objective = %g, want %g", sol.Objective, tc.obj)
			}
			checkFeasibleBounded(t, tc.p, sol.X)
			dot := 0.0
			for j, c := range tc.p.Objective {
				dot += c * sol.X[j]
			}
			if math.Abs(dot-sol.Objective) > 1e-6 {
				t.Fatalf("objective %g does not match c·x = %g", sol.Objective, dot)
			}
			if len(sol.Duals) != len(tc.p.Constraints) {
				t.Fatalf("got %d duals for %d rows", len(sol.Duals), len(tc.p.Constraints))
			}
			warm, err := SolveFrom(tc.p, sol.Basis)
			if err != nil {
				t.Fatalf("SolveFrom: %v", err)
			}
			if !warm.Warm || warm.Iterations != 0 {
				t.Fatalf("restoring the optimal basis: warm=%v after %d pivots", warm.Warm, warm.Iterations)
			}
			for j := range sol.X {
				if math.Abs(warm.X[j]-sol.X[j]) > 1e-9 {
					t.Fatalf("warm round trip moved the optimum: %v vs %v", warm.X, sol.X)
				}
			}
		})
	}
}

// TestCompileMatchesDenseReference pins the column order of a compiled
// model: for every conformance problem, NewModel's CSC of [A | I] equals
// one built here from the dense matrix, column by column and row by row
// in ascending order, zeros dropped. A copy whose rows list every column,
// zero values included, must compile to the same arrays.
func TestCompileMatchesDenseReference(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			m, n := len(p.Constraints), p.NumVars()
			a := make([][]float64, m)
			for i := range a {
				a[i] = make([]float64, n)
				for j := range a[i] {
					a[i][j] = coef(p.Constraints[i], j)
				}
			}
			var want csc
			want.ptr = append(want.ptr, 0)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					if a[i][j] != 0 {
						want.ind, want.val = append(want.ind, int32(i)), append(want.val, a[i][j])
					}
				}
				want.ptr = append(want.ptr, int32(len(want.ind)))
			}
			for i := 0; i < m; i++ {
				want.ind, want.val = append(want.ind, int32(i)), append(want.val, 1)
				want.ptr = append(want.ptr, int32(len(want.ind)))
			}

			full := *p
			full.Constraints = make([]Constraint, m)
			for i, c := range p.Constraints {
				full.Constraints[i] = Constraint{Val: a[i], Rel: c.Rel, RHS: c.RHS}
				for j := 0; j < n; j++ {
					full.Constraints[i].Idx = append(full.Constraints[i].Idx, int32(j))
				}
			}
			for name, q := range map[string]*Problem{"sparse": p, "explicit zeros": &full} {
				md, err := NewModel(q)
				if err != nil {
					t.Fatalf("%s: NewModel: %v", name, err)
				}
				if !slices.Equal(md.ptr, want.ptr) || !slices.Equal(md.ind, want.ind) || !slices.Equal(md.val, want.val) {
					t.Errorf("%s: compiled CSC\nptr %v\nind %v\nval %v\nwant\nptr %v\nind %v\nval %v",
						name, md.ptr, md.ind, md.val, want.ptr, want.ind, want.val)
				}
				md.Release()
			}
		})
	}
}

// checkFeasibleBounded is checkFeasible plus the variable bounds (the
// conformance cases use non-default boxes, which checkFeasible's
// x >= 0 assumption does not cover).
func checkFeasibleBounded(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	for j, v := range x {
		if v < p.LowerBound(j)-1e-6 || v > p.UpperBound(j)+1e-6 {
			t.Fatalf("x[%d] = %g outside [%g, %g]", j, v, p.LowerBound(j), p.UpperBound(j))
		}
	}
	for i, c := range p.Constraints {
		dot := c.Dot(x)
		switch c.Rel {
		case LE:
			if dot > c.RHS+1e-6 {
				t.Fatalf("row %d: %g > %g", i, dot, c.RHS)
			}
		case GE:
			if dot < c.RHS-1e-6 {
				t.Fatalf("row %d: %g < %g", i, dot, c.RHS)
			}
		case EQ:
			if math.Abs(dot-c.RHS) > 1e-6 {
				t.Fatalf("row %d: %g != %g", i, dot, c.RHS)
			}
		}
	}
}

// coveringChild is coveringBase with z capped below its relaxed value 7:
// the child optimum x=4, z=3 (cost 61) is non-degenerate.
func coveringChild() *Problem {
	child := coveringBase()
	child.SetBounds(2, 0, 3)
	return child
}

// TestKernelsAgreeOnDuals: the kernel reaches the child optimum along two
// different pivot paths — the cold two-phase primal simplex, and the dual
// simplex that repairs the parent's basis after the bound tightening. On
// a non-degenerate instance the dual vector is unique, so both paths must
// agree on it exactly (up to roundoff), not just on the objective.
func TestKernelsAgreeOnDuals(t *testing.T) {
	parent, err := Solve(coveringBase(), nil)
	if err != nil {
		t.Fatal(err)
	}
	child := coveringChild()
	cold, err := Solve(child, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveFrom(child, parent.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || !warm.Warm || warm.Iterations == 0 {
		t.Fatalf("cold %v; warm=%v after %d pivots: the dual path did not run", cold.Status, warm.Warm, warm.Iterations)
	}
	if math.Abs(cold.Objective-61) > 1e-9 || math.Abs(warm.Objective-61) > 1e-9 {
		t.Fatalf("objectives: cold %g, warm %g, want 61", cold.Objective, warm.Objective)
	}
	for i, want := range []float64{10, 0} {
		if math.Abs(cold.Duals[i]-want) > 1e-9 || math.Abs(warm.Duals[i]-want) > 1e-9 {
			t.Errorf("dual %d: cold %g, warm %g, want %g", i, cold.Duals[i], warm.Duals[i], want)
		}
	}
}

// TestCrossKernelWarmStart restores a snapshot across problems: the
// parent's optimal basis, taken on the covering instance, must restart
// the bound-tightened child on the warm path and reach the cold optimum
// at a feasible point. (The name dates from when the package had two
// pivot kernels and the snapshot also crossed between them.)
func TestCrossKernelWarmStart(t *testing.T) {
	parent, err := Solve(coveringBase(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != Optimal || parent.Basis == nil {
		t.Fatalf("parent not warm-startable: %+v", parent)
	}
	child := coveringChild()
	cold, err := Solve(child, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveFrom(child, parent.Basis)
	if err != nil {
		t.Fatalf("SolveFrom: %v", err)
	}
	if warm.Status != Optimal {
		t.Fatalf("status = %v", warm.Status)
	}
	if !warm.Warm {
		t.Error("restore fell back cold")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("objective = %g, cold = %g", warm.Objective, cold.Objective)
	}
	checkFeasibleBounded(t, child, warm.X)
}

// TestCrossKernelWarmStartAppendedRows runs the restore over the
// branch-and-bound row shape: the child appends a bound row, so the
// snapshot covers fewer rows than the child problem.
func TestCrossKernelWarmStartAppendedRows(t *testing.T) {
	base := coveringBase()
	child := base.Clone()
	child.Constraints = append(child.Constraints, dense([]float64{0, 0, 1}, LE, 3))
	parent, err := Solve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(child, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveFrom(child, parent.Basis)
	if err != nil {
		t.Fatalf("SolveFrom: %v", err)
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("%v obj %g, cold %g", warm.Status, warm.Objective, cold.Objective)
	}
	if !warm.Warm {
		t.Error("restore fell back cold")
	}
	checkFeasibleBounded(t, child, warm.X)
}

// TestStatusErr pins the typed sentinel mapping callers errors.Is
// against.
func TestStatusErr(t *testing.T) {
	if err := Optimal.Err(); err != nil {
		t.Errorf("Optimal.Err() = %v", err)
	}
	for st, want := range map[Status]error{
		Infeasible: ErrInfeasible,
		Unbounded:  ErrUnbounded,
		IterLimit:  ErrIterLimit,
	} {
		if err := st.Err(); err != want {
			t.Errorf("%v.Err() = %v, want %v", st, err, want)
		}
	}
}
