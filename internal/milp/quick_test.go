package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rentmin/internal/lp"
)

// randomCoverMILP builds a small random integer covering problem with
// non-negative data, solvable by brute force.
func randomCoverMILP(r *rand.Rand) *Problem {
	n := 1 + r.Intn(4)
	m := 1 + r.Intn(3)
	p := &Problem{
		LP:      lp.Problem{Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = float64(1 + r.Intn(15))
		p.Integer[j] = true
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(r.Intn(4))
		}
		row[r.Intn(n)] = float64(1 + r.Intn(4))
		p.LP.Constraints = append(p.LP.Constraints, dense(row, lp.GE, float64(r.Intn(12))))
	}
	return p
}

// halfCosts returns a copy of p with every cost lowered by 1/2. The costs
// of a randomCoverMILP stay positive, and integral-objective pruning no
// longer holds.
func halfCosts(p *Problem) *Problem {
	q := &Problem{LP: *p.LP.Clone(), Integer: p.Integer}
	for j := range q.LP.Objective {
		q.LP.Objective[j] -= 0.5
	}
	return q
}

// Property: branch and bound matches brute force on random covering MILPs,
// with and without integral-objective pruning, with and without a rounder.
func TestQuickMatchesBruteForce(t *testing.T) {
	rounder := func(x []float64) ([]float64, bool) {
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Ceil(v - 1e-9)
		}
		return y, true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		for _, q := range []*Problem{p, halfCosts(p)} {
			want := bruteForceCover(q)
			for _, opts := range []*Options{nil, {Rounder: rounder}} {
				res, err := Solve(q, opts)
				if err != nil || res.Status != Optimal {
					return false
				}
				if math.Abs(res.Objective-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the reported incumbent always satisfies the constraints and
// integrality.
func TestQuickIncumbentFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		res, err := Solve(p, nil)
		if err != nil || res.Status != Optimal {
			return false
		}
		s := &solver{p: p}
		obj, err := s.checkFeasible(res.X)
		if err != nil {
			return false
		}
		return math.Abs(obj-res.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a warm start never worsens the final result, and the result is
// never worse than the warm start itself.
func TestQuickWarmStartConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		cold, err := Solve(p, nil)
		if err != nil || cold.Status != Optimal {
			return false
		}
		// Build a deliberately bad but feasible warm start: cover every
		// row with the first positive-coefficient variable.
		n := p.LP.NumVars()
		inc := make([]float64, n)
		for _, c := range p.LP.Constraints {
			for k, j := range c.Idx {
				if v := c.Val[k]; v > 0 {
					need := math.Ceil(c.RHS / v)
					if need > inc[j] {
						inc[j] = need
					}
					break
				}
			}
		}
		warm, err := Solve(p, &Options{Incumbent: inc})
		if err != nil || warm.Status != Optimal {
			return false
		}
		return math.Abs(cold.Objective-warm.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
