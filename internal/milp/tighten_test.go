package milp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rentmin/internal/lp"
)

// tightenFixture is a solver over an all-integer problem with the given
// costs and rows, holding an incumbent of value inc unless inc is +Inf.
// As in a solve, the costs decide integral-objective pruning.
func tightenFixture(obj []float64, rows []lp.Constraint, inc float64) *solver {
	p := &Problem{
		LP:      lp.Problem{Objective: obj, Constraints: rows},
		Integer: make([]bool, len(obj)),
	}
	for j := range p.Integer {
		p.Integer[j] = true
	}
	return &solver{
		p: p, work: p, base: &p.LP,
		opts:    &Options{},
		sc:      new(scratch),
		intObj:  integralObjective(p),
		bestObj: inc,
		hasBest: !math.IsInf(inc, 1),
	}
}

// relaxed is a node with relaxation point x, row duals y and LP bound z
// under the bounds lo/hi; a nil side takes the defaults, 0 and +Inf.
func relaxed(lo, hi, x, y []float64, z float64) *node {
	if lo == nil {
		lo = make([]float64, len(x))
	}
	if hi == nil {
		hi = make([]float64, len(x))
		for j := range hi {
			hi[j] = math.Inf(1)
		}
	}
	return &node{lo: lo, hi: hi, relax: &lp.Solution{Status: lp.Optimal, X: x, Duals: y}, bound: z}
}

// TestTightenExactQuotient: gap/d_j = k exactly keeps lo + k, not
// lo + k − 1, also when the quotient rounds to just below k in floating
// point (0.6/0.2 = 2.9999999999999996). Reduced costs come from the
// duals: d = c − yᵀA.
func TestTightenExactQuotient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      []float64
		inc, z float64
		want   []float64
	}{
		// Integral costs: d = (2, 3.5), gap = 7 − 1 − 0 = 6: 6/2 = 3 and
		// 6/3.5 → 1.
		{"integral", []float64{2, 4}, 7, 0, []float64{3, 1}},
		// d = (0.2, 2), gap = 0.6: 0.6/0.2 → 3 and 0.6/2 → 0.
		{"roundoff", []float64{0.2, 2.5}, 0.6, 0, []float64{3, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One row x1 >= 0 with dual 0.5 takes 0.5 off x1's cost.
			s := tightenFixture(tc.c, []lp.Constraint{dense([]float64{0, 1}, lp.GE, 0)}, tc.inc)
			n := relaxed(nil, nil, []float64{0, 0}, []float64{0.5}, tc.z)
			s.tighten(n)
			if !slices.Equal(n.lo, []float64{0, 0}) {
				t.Errorf("lo = %v, want [0 0] (no column rests at an upper bound)", n.lo)
			}
			if !slices.Equal(n.hi, tc.want) {
				t.Errorf("hi = %v, want %v", n.hi, tc.want)
			}
		})
	}
}

// TestTightenAtUpperBound: a column resting at a finite upper bound with
// d_j < 0 gets its lower bound raised to hi − ⌊gap/|d_j|⌋; a column at
// its lower bound in the same node is capped as usual.
func TestTightenAtUpperBound(t *testing.T) {
	// d = (−2, 1.5), gap = −6 − (−10) = 4: the half-integral cost leaves
	// the gap whole.
	s := tightenFixture([]float64{-2, 1.5}, nil, -6)
	n := relaxed([]float64{0, 0}, []float64{5, math.Inf(1)}, []float64{5, 0}, nil, -10)
	s.tighten(n)
	if want := []float64{3, 0}; !slices.Equal(n.lo, want) {
		t.Errorf("lo = %v, want %v", n.lo, want)
	}
	if want := []float64{5, 2}; !slices.Equal(n.hi, want) {
		t.Errorf("hi = %v, want %v", n.hi, want)
	}
}

// TestTightenGapWithoutIntegralObjective: when the costs leave some
// feasible objective fractional the gap is z* − z, one unit wider than
// under integral costs. Column 0 costs 1 in both problems; column 1
// costs 1/2 or 1.
func TestTightenGapWithoutIntegralObjective(t *testing.T) {
	for _, tc := range []struct {
		c1   float64
		want []float64
	}{{0.5, []float64{3, 6}}, {1, []float64{2, 2}}} {
		s := tightenFixture([]float64{1, tc.c1}, nil, 5)
		n := relaxed(nil, nil, []float64{0, 0}, nil, 2)
		s.tighten(n)
		if !slices.Equal(n.hi, tc.want) {
			t.Errorf("costs [1 %g] (integral %v): hi = %v, want %v", tc.c1, s.intObj, n.hi, tc.want)
		}
	}
}

// TestTightenNoIncumbent: without an incumbent nothing is tightened, in
// the node's own slices.
func TestTightenNoIncumbent(t *testing.T) {
	s := tightenFixture([]float64{1, -1}, nil, math.Inf(1))
	lo, hi := []float64{0, 0}, []float64{math.Inf(1), 4}
	n := relaxed(lo, hi, []float64{0, 4}, nil, -4)
	s.tighten(n)
	if &n.lo[0] != &lo[0] || &n.hi[0] != &hi[0] {
		t.Error("a node without an incumbent got new bound slices")
	}
	if !slices.Equal(lo, []float64{0, 0}) || !slices.Equal(hi, []float64{math.Inf(1), 4}) {
		t.Errorf("bounds changed to lo %v, hi %v", lo, hi)
	}
}

// TestTightenWritesOnlyItsNode: every node owns its bounds, so
// tightening writes them in place. Tightening the root and then a child
// leaves the problem's bounds, and the parent's and the sibling's once
// the children are made, byte-identical.
func TestTightenWritesOnlyItsNode(t *testing.T) {
	s := tightenFixture([]float64{1, -1, 1.5}, nil, 3)
	s.p.LP.Lo = []float64{0, 0, 0}
	s.p.LP.Hi = []float64{9, 6, 9}
	snap := func(ns ...*node) [][]uint64 {
		var out [][]uint64
		for _, n := range ns {
			out = append(out, bits(n.lo), bits(n.hi))
		}
		return out
	}
	probLo, probHi := bits(s.p.LP.Lo), bits(s.p.LP.Hi)

	// Root: x0 at 0 (d = 1), x1 at its upper bound 6 (d = −1), x2
	// fractional. gap = 3 − (−5.5) = 8.5 leaves x0 ≤ 8 and x1 ≥ −2, so
	// only x0 tightens.
	root := relaxed(slices.Clone(s.p.LP.Lo), slices.Clone(s.p.LP.Hi), []float64{0, 6, 0.5}, nil, -5.5)
	rootLo, rootHi := &root.lo[0], &root.hi[0]
	s.tighten(root)
	if !slices.Equal(root.hi, []float64{8, 6, 9}) || !slices.Equal(root.lo, []float64{0, 0, 0}) {
		t.Fatalf("root lo %v hi %v, want lo [0 0 0], hi [8 6 9]", root.lo, root.hi)
	}
	if &root.lo[0] != rootLo || &root.hi[0] != rootHi {
		t.Fatal("tightening the root replaced its bound slices")
	}
	if !slices.Equal(bits(s.p.LP.Lo), probLo) || !slices.Equal(bits(s.p.LP.Hi), probHi) {
		t.Fatal("tightening the root wrote the problem's bounds")
	}

	// Branch on x2 = 0.5: each child copies the root's tightened box with
	// its patch on x2.
	down := s.childNode(root, &child{j: 2, lo: 0, hi: 0})
	up := s.childNode(root, &child{j: 2, lo: 1, hi: root.hi[2]})
	if !slices.Equal(down.lo, []float64{0, 0, 0}) || !slices.Equal(down.hi, []float64{8, 6, 0}) ||
		!slices.Equal(up.lo, []float64{0, 0, 1}) || !slices.Equal(up.hi, []float64{8, 6, 9}) {
		t.Fatalf("children down [%v %v], up [%v %v]", down.lo, down.hi, up.lo, up.hi)
	}
	before := snap(root, up)
	// The down child's LP: x0 at 0, x1 at 6, bound −1, so gap = 4 caps
	// x0 at 4 and raises x1 to 2 — both sides change.
	down.relax = &lp.Solution{Status: lp.Optimal, X: []float64{0, 6, 0}}
	down.bound = -1
	s.tighten(down)
	if !slices.Equal(down.lo, []float64{0, 2, 0}) || !slices.Equal(down.hi, []float64{4, 6, 0}) {
		t.Errorf("down child lo %v hi %v, want [0 2 0] and [4 6 0]", down.lo, down.hi)
	}
	if after := snap(root, up); !slices.EqualFunc(before, after, slices.Equal[[]uint64]) {
		t.Errorf("parent or sibling bounds changed: before %v, after %v", before, after)
	}
	if !slices.Equal(bits(s.p.LP.Lo), probLo) || !slices.Equal(bits(s.p.LP.Hi), probHi) {
		t.Error("tightening a child wrote the problem's bounds")
	}
}

// TestEnqueuedChildOwnsItsBounds: buildChild solves each child over the
// solver's scratch bound slices, and only enqueueChild gives a child its
// own copy of the patched box. Overwriting the scratch and the parent's
// bounds after both children of a branching are enqueued leaves their
// patched sides unchanged.
func TestEnqueuedChildOwnsItsBounds(t *testing.T) {
	// min x0 + x1 s.t. 2·x0 + 2·x1 >= 3 in the box [0,5]²: the root LP
	// sits at x0 = 1.5, x1 = 0.
	s := tightenFixture([]float64{1, 1}, []lp.Constraint{dense([]float64{2, 2}, lp.GE, 3)}, math.Inf(1))
	s.aside = math.Inf(1)
	s.p.LP.Lo = []float64{0, 0}
	s.p.LP.Hi = []float64{5, 5}
	var err error
	if s.model, err = lp.NewModel(s.base); err != nil {
		t.Fatal(err)
	}
	defer s.model.Release()
	root := &node{lo: slices.Clone(s.p.LP.Lo), hi: slices.Clone(s.p.LP.Hi)}
	if err := s.solveRoot(root, nil); err != nil {
		t.Fatal(err)
	}
	j := slices.IndexFunc(root.relax.X, func(v float64) bool { return v != math.Floor(v) })
	if j < 0 {
		t.Fatalf("root relaxation %v is integral", root.relax.X)
	}
	v := root.relax.X[j]

	down := s.buildChild(root, nil, j, math.Inf(-1), math.Floor(v))
	up := s.buildChild(root, nil, j, math.Ceil(v), math.Inf(1))
	if down.state != childSolved || up.state != childSolved {
		t.Fatalf("children did not solve: down %v, up %v", down.state, up.state)
	}
	h := &nodeHeap{}
	s.enqueueChild(h, root, &down)
	s.enqueueChild(h, root, &up)
	if h.Len() != 2 {
		t.Fatalf("heap holds %d nodes, want both children", h.Len())
	}
	var kidDown, kidUp *node
	for _, n := range *h {
		if n.hi[j] == math.Floor(v) {
			kidDown = n
		} else {
			kidUp = n
		}
	}
	if kidDown == nil || kidUp == nil || kidUp.lo[j] != math.Ceil(v) {
		t.Fatalf("heap %v does not hold the down and the up child of x%d = %g", *h, j, v)
	}
	wantHi, wantLo := slices.Clone(kidDown.hi), slices.Clone(kidUp.lo)
	for _, b := range [][]float64{s.sc.clo, s.sc.chi, root.lo, root.hi} {
		for k := range b {
			b[k] = math.NaN()
		}
	}
	if !slices.Equal(kidDown.hi, wantHi) || !slices.Equal(kidUp.lo, wantLo) {
		t.Errorf("overwriting the scratch and the parent changed the children: down hi %v (want %v), up lo %v (want %v)",
			kidDown.hi, wantHi, kidUp.lo, wantLo)
	}
}

// TestQuickTightenKeepsImprovingPoints: on random boxed covering MILPs,
// tightening the root from its real LP duals and an incumbent above the
// optimum never cuts off an integer point that beats the incumbent.
// Every such point is enumerated and checked against the tightened box.
// Each instance runs with its integral costs and with every cost lowered
// by 1/2, so both gap rules are checked.
func TestQuickTightenKeepsImprovingPoints(t *testing.T) {
	tightened := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		n := p.LP.NumVars()
		p.LP.Lo = make([]float64, n)
		p.LP.Hi = make([]float64, n)
		for j := range p.LP.Hi {
			p.LP.Hi[j] = math.Inf(1)
			if r.Intn(2) == 0 {
				p.LP.Hi[j] = float64(r.Intn(4))
			}
		}
		for _, q := range []*Problem{halfCosts(p), p} {
			sol, err := lp.Solve(&q.LP, nil)
			if err != nil || sol.Status != lp.Optimal {
				continue
			}
			opt := bruteForceBox(q, math.Inf(1), nil)
			if math.IsInf(opt, 1) {
				continue
			}
			inc := opt + float64(1+r.Intn(3))
			s := tightenFixture(q.LP.Objective, q.LP.Constraints, inc)
			s.p.LP.Lo, s.p.LP.Hi = q.LP.Lo, q.LP.Hi
			root := relaxed(slices.Clone(q.LP.Lo), slices.Clone(q.LP.Hi), sol.X, sol.Duals, sol.Objective)
			s.tighten(root)
			if !slices.Equal(root.lo, q.LP.Lo) || !slices.Equal(root.hi, q.LP.Hi) {
				tightened++
			}
			cut := inc - 1e-9
			if s.intObj {
				cut = inc - 1 + 1e-9
			}
			bruteForceBox(q, cut, func(x []float64) {
				for j, v := range x {
					if v < root.lo[j] || v > root.hi[j] {
						t.Fatalf("seed %d (integral %v): improving point %v leaves the tightened box lo %v hi %v",
							seed, s.intObj, x, root.lo, root.hi)
					}
				}
			})
		}
	}
	if tightened == 0 {
		t.Fatal("no instance tightened a bound; the property is vacuous")
	}
}

// bruteForceBox enumerates the integer points of a covering problem with
// positive costs inside its Lo/Hi box whose objective is at most cut,
// calling visit on each (when non-nil), and returns the best objective.
// Positive costs bound every column by cut/c_j; an infinite cut uses
// bruteForceCover's single-row cover bound instead.
func bruteForceBox(p *Problem, cut float64, visit func([]float64)) float64 {
	n := p.LP.NumVars()
	limit := make([]float64, n)
	for j := range limit {
		k := cut / p.LP.Objective[j]
		if math.IsInf(cut, 1) {
			k = 0
			for _, c := range p.LP.Constraints {
				for _, v := range c.Val {
					if v > 0 {
						k = math.Max(k, math.Ceil(c.RHS/v))
					}
				}
			}
		}
		limit[j] = math.Min(p.LP.UpperBound(j), math.Floor(k))
	}
	best := math.Inf(1)
	x := make([]float64, n)
	var rec func(i int, obj float64)
	rec = func(i int, obj float64) {
		if obj > cut {
			return
		}
		if i == n {
			for _, c := range p.LP.Constraints {
				if c.Dot(x) < c.RHS-1e-9 {
					return
				}
			}
			best = math.Min(best, obj)
			if visit != nil {
				visit(x)
			}
			return
		}
		for v := p.LP.LowerBound(i); v <= limit[i]; v++ {
			x[i] = v
			rec(i+1, obj+p.LP.Objective[i]*v)
		}
		x[i] = 0
	}
	rec(0, 0)
	return best
}
