package milp

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"rentmin/internal/lp"
)

// recipeProblem is the recipe model of package solve written out by hand
// for two recipes over two machine types: recipe A runs on type 0
// (r = 10, c = 10, unit rate 1) and recipe B on type 1 (r = 2, c = 3,
// unit rate 1.5). Columns are [ρ_A, ρ_B, x_0, x_1]. At target 15 the LP
// root sends everything through A (objective 15), and the integer
// optimum 19 mixes A = 10 on one type-0 machine with B = 5 on three
// type-1 machines.
func recipeProblem() *Problem {
	return &Problem{
		LP: lp.Problem{
			Objective: []float64{0, 0, 10, 3},
			Constraints: []lp.Constraint{
				dense([]float64{1, 1, 0, 0}, lp.GE, 15),
				dense([]float64{-1, 0, 10, 0}, lp.GE, 0),
				dense([]float64{0, -1, 0, 2}, lp.GE, 0),
			},
		},
		Integer: []bool{true, true, true, true},
	}
}

// recipeBasis is recipeProblem's structural root basis: ρ_A in the total
// row, each x_q in its type's row.
func recipeBasis() []int32 { return []int32{0, 2, 3} }

// A seeded root starts warm and runs no cut rounds; DisableWarmLP
// ignores the basis. The optimum is the same on every path.
func TestRootBasisSeedSkipsCutsAndDisableWarm(t *testing.T) {
	cold := solveOK(t, recipeProblem(), &Options{RootCutRounds: 4})
	wantOptimal(t, cold, 19)
	if cold.RootLPWarm {
		t.Error("a solve without a root basis reports a warm root")
	}

	seeded := solveOK(t, recipeProblem(), &Options{RootCutRounds: 4, RootBasis: recipeBasis()})
	wantOptimal(t, seeded, 19)
	if !seeded.RootLPWarm {
		t.Error("the structural basis did not start the root")
	}
	if seeded.CutRounds != 0 || seeded.Cuts != 0 {
		t.Errorf("seeded root ran %d cut rounds (%d cuts), want none", seeded.CutRounds, seeded.Cuts)
	}

	off := solveOK(t, recipeProblem(), &Options{RootBasis: recipeBasis(), DisableWarmLP: true})
	wantOptimal(t, off, 19)
	if off.RootLPWarm {
		t.Error("DisableWarmLP still started the root from the basis")
	}
}

// A basis the root cannot start from solves the root cold, with the same
// optimum: a column named twice, a column out of range, more entries
// than rows, and a basis that is not dual feasible (ρ_B, the dearer
// recipe, carrying the target).
func TestRootBasisShapeMismatchFallsBackCold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		basis []int32
	}{
		{"duplicate", []int32{2, 2, 3}},
		{"out of range", []int32{0, 2, 9}},
		{"too long", []int32{0, 2, 3, -1}},
		{"dual infeasible", []int32{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := solveOK(t, recipeProblem(), &Options{RootBasis: tc.basis})
			wantOptimal(t, res, 19)
			if res.RootLPWarm {
				t.Errorf("basis %v reported a warm root", tc.basis)
			}
		})
	}
}

// With the optimum as incumbent, presolve's cutoff bounds ρ_A, the
// recipe the structural basis sends the whole target through, at 10,
// below the target 15, and fixes both machine counts. The mapped basis
// is primal infeasible there, and the search still proves the optimum a
// cold solve proves.
func TestRootBasisBoundedBelowTarget(t *testing.T) {
	inc := []float64{10, 5, 1, 3}
	red := presolve(recipeProblem(), 19, recipeBasis())
	if red.Infeasible || red.P == nil {
		t.Fatalf("presolve: %+v", red)
	}
	a := slices.Index(red.keep, 0)
	if a < 0 || red.P.LP.Hi[a] >= 15 {
		t.Fatalf("presolve kept columns %v with upper bounds %v: want ρ_A bounded below 15", red.keep, red.P.LP.Hi)
	}
	if want := []int32{int32(a)}; !slices.Equal(red.basis, want) {
		t.Errorf("mapped basis %v, want %v (ρ_A in the one row left)", red.basis, want)
	}

	cold := solveOK(t, recipeProblem(), &Options{Incumbent: inc, Presolve: true})
	warm := solveOK(t, recipeProblem(), &Options{Incumbent: inc, Presolve: true, RootBasis: recipeBasis()})
	wantOptimal(t, cold, 19)
	wantOptimal(t, warm, 19)
}

// Presolve maps a basis only when one is given. A surviving row keeps
// its basic column, renumbered; a row whose basic column was fixed takes
// its own slack; a removed row drops out.
func TestPresolveMapsRootBasis(t *testing.T) {
	if red := Presolve(recipeProblem(), 24); red.basis != nil {
		t.Errorf("presolve without a basis mapped one: %v", red.basis)
	}
	inf := math.Inf(1)
	// A third recipe C runs on both types. Fixing ρ_A at 5 keeps every
	// row: the total row's basic column is gone, x_0 and x_1 move down.
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{0, 0, 0, 10, 3},
			Constraints: []lp.Constraint{
				dense([]float64{1, 1, 1, 0, 0}, lp.GE, 15),
				dense([]float64{-1, 0, -1, 10, 0}, lp.GE, 0),
				dense([]float64{0, -1, -1, 0, 2}, lp.GE, 0),
			},
			Lo: []float64{5, 0, 0, 0, 0},
			Hi: []float64{5, inf, inf, inf, inf},
		},
		Integer: []bool{true, true, true, true, true},
	}
	// Fixing x_0 at 0 fixes ρ_A and removes the total row and type 0's:
	// x_1 is left, renumbered, in the one row that stays.
	noA := recipeProblem()
	noA.LP.Hi = []float64{inf, inf, 0, inf}
	for _, tc := range []struct {
		name   string
		p      *Problem
		cutoff float64
		basis  []int32
		keep   []int
		want   []int32
	}{
		// Cutoff 20 tightens bounds only: every row and column stays.
		{"unchanged", recipeProblem(), 20, []int32{0, 2, 3}, []int{0, 1, 2, 3}, []int32{0, 2, 3}},
		{"fixed basic column", p, inf, []int32{0, 3, 4}, []int{1, 2, 3, 4}, []int32{-1, 2, 3}},
		{"removed rows", noA, inf, []int32{0, 2, 3}, []int{1, 3}, []int32{1}},
	} {
		red := presolve(tc.p, tc.cutoff, tc.basis)
		if red.Infeasible || !slices.Equal(red.keep, tc.keep) {
			t.Fatalf("%s: presolve kept columns %v (%+v), want %v", tc.name, red.keep, red.Stats, tc.keep)
		}
		if len(red.P.LP.Constraints) != len(tc.want) || !slices.Equal(red.basis, tc.want) {
			t.Errorf("%s: mapped basis %v over %d rows, want %v", tc.name, red.basis, len(red.P.LP.Constraints), tc.want)
		}
	}
}

// A root that runs no cuts solves through the tree's compiled model, from
// its seed restored into the scratch's Start. Its result must be bit for
// bit the one-shot lp.SolveFrom of the searched problem from that seed:
// X, Duals, objective, pivots, path and basis. The root is read at the
// first pop of the search, on a structurally seeded solve (warm in 0
// pivots), on one seeded with the all-slack basis (warm dual pivots) and
// on an unseeded solve with RootCutRounds 0 (cold).
func TestCutFreeRootMatchesOneShot(t *testing.T) {
	fig3 := fig3MILP(t, 100)
	slack := make([]int32, len(fig3.LP.Constraints))
	for i := range slack {
		slack[i] = -1
	}
	defer func() { onPop = nil }()
	for _, tc := range []struct {
		name string
		p    *Problem
		opts *Options
		warm bool
	}{
		{"structural seed", recipeProblem(), &Options{RootCutRounds: 4, RootBasis: recipeBasis()}, true},
		{"all-slack seed", fig3, &Options{RootBasis: slack}, true},
		{"unseeded, no cuts", fig3, &Options{RootCutRounds: 0}, false},
	} {
		pops := 0
		onPop = func(s *solver, n *node) {
			if pops++; pops > 1 {
				return
			}
			var seed *lp.Basis
			if s.opts.RootBasis != nil {
				seed = lp.NewBasis(s.base.NumVars(), s.opts.RootBasis)
			}
			want, err := lp.SolveFrom(s.base, seed)
			if err != nil {
				t.Fatalf("%s: one-shot root: %v", tc.name, err)
			}
			got := n.relax
			switch {
			case got.Status != lp.Optimal || want.Status != lp.Optimal:
				t.Errorf("%s: root status %v, one-shot %v", tc.name, got.Status, want.Status)
			case got.Warm != tc.warm || want.Warm != tc.warm:
				t.Errorf("%s: root warm %v, one-shot warm %v, want %v", tc.name, got.Warm, want.Warm, tc.warm)
			case got.Iterations != want.Iterations:
				t.Errorf("%s: root took %d pivots, one-shot %d", tc.name, got.Iterations, want.Iterations)
			case !slices.Equal(bits(got.X), bits(want.X)) || !slices.Equal(bits(got.Duals), bits(want.Duals)) ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
				t.Errorf("%s: root X, Duals or objective differ from the one-shot solve", tc.name)
			case !reflect.DeepEqual(*got.Basis, *want.Basis):
				t.Errorf("%s: root basis differs from the one-shot solve", tc.name)
			}
		}
		solveOK(t, tc.p, tc.opts)
		if pops == 0 {
			t.Errorf("%s: the search popped no root", tc.name)
		}
	}
}
