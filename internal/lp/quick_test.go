package lp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCoveringLP builds a random feasible covering LP (the structure of
// the paper's relaxations): minimize c·x with A >= 0, c >= 0, A·x >= b.
// Feasibility is guaranteed by making sure every row has at least one
// strictly positive coefficient.
func randomCoveringLP(r *rand.Rand) *Problem {
	n := 1 + r.Intn(6)
	m := 1 + r.Intn(6)
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(1 + r.Intn(20))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			if r.Intn(2) == 0 {
				row[j] = float64(r.Intn(5))
			}
		}
		row[r.Intn(n)] = float64(1 + r.Intn(5)) // ensure coverable
		p.Constraints = append(p.Constraints, dense(row, GE, float64(r.Intn(30))))
	}
	return p
}

// feasible reports whether x satisfies all constraints of p within tol.
func feasible(p *Problem, x []float64, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for _, c := range p.Constraints {
		dot := c.Dot(x)
		switch c.Rel {
		case LE:
			if dot > c.RHS+tol {
				return false
			}
		case GE:
			if dot < c.RHS-tol {
				return false
			}
		case EQ:
			if dot > c.RHS+tol || dot < c.RHS-tol {
				return false
			}
		}
	}
	return true
}

// Property: solutions of random covering LPs are feasible and their
// objective matches c·x.
func TestQuickSolutionsFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoveringLP(r)
		sol, err := Solve(p, nil)
		if err != nil || sol.Status != Optimal {
			return false // covering LPs here are always feasible and bounded
		}
		if !feasible(p, sol.X, 1e-6) {
			return false
		}
		dot := 0.0
		for j, c := range p.Objective {
			dot += c * sol.X[j]
		}
		return abs(dot-sol.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: strong duality. For min c·x s.t. Ax >= b, x >= 0 the dual is
// max b·y s.t. A^T y <= c, y >= 0. We solve both with the same solver and
// check the optima coincide.
func TestQuickStrongDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoveringLP(r)
		primal, err := Solve(p, nil)
		if err != nil || primal.Status != Optimal {
			return false
		}
		m := len(p.Constraints)
		n := p.NumVars()
		dual := &Problem{Objective: make([]float64, m)}
		for i, c := range p.Constraints {
			dual.Objective[i] = -c.RHS // max b·y == min -b·y
		}
		for j := 0; j < n; j++ {
			row := make([]float64, m)
			for i := 0; i < m; i++ {
				row[i] = coef(p.Constraints[i], j)
			}
			dual.Constraints = append(dual.Constraints, dense(row, LE, p.Objective[j]))
		}
		dsol, err := Solve(dual, nil)
		if err != nil || dsol.Status != Optimal {
			return false
		}
		return abs(primal.Objective-(-dsol.Objective)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the optimum of a covering LP never exceeds the objective of
// the naive feasible point that satisfies each row with its cheapest
// single variable (an explicit upper-bound certificate).
func TestQuickOptimumBelowGreedyPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoveringLP(r)
		// Greedy point: for each row pick the variable with positive
		// coefficient and minimum c_j/a_ij, raise it to cover the row.
		x := make([]float64, p.NumVars())
		for _, c := range p.Constraints {
			bestJ, bestRate := -1, 0.0
			for k, j := range c.Idx {
				if a := c.Val[k]; a > 0 {
					rate := p.Objective[j] / a
					if bestJ < 0 || rate < bestRate {
						bestJ, bestRate = int(j), rate
					}
				}
			}
			need := c.RHS / coef(c, bestJ)
			if need > x[bestJ] {
				x[bestJ] = need
			}
		}
		greedyObj := 0.0
		for j, c := range p.Objective {
			greedyObj += c * x[j]
		}
		sol, err := Solve(p, nil)
		if err != nil || sol.Status != Optimal {
			return false
		}
		return sol.Objective <= greedyObj+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
