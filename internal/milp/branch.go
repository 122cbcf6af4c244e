// Reliability branching (Achterberg, Koch & Martin, "Branching rules
// revisited", 2005).
//
// Strong branching solves both children of several fractional candidates
// at every node and keeps one pair. Reliability branching keeps its
// decisions at a fraction of the LP work: every solved child records the
// bound gain per unit of fractionality of its branching variable (the
// variable's pseudocost in that direction), and once a variable has been
// observed in both directions its children are estimated from the
// pseudocosts instead of being solved. Only unreliable candidates are
// probed, at most probeCap of them per node, in order of their estimated
// score.
package milp

import "math"

const (
	// probeCap caps the unreliable candidates probed per node.
	probeCap = 8
	// reliableAfter is the number of observations per direction after
	// which a variable is branched on from its pseudocosts alone.
	reliableAfter = 1
	// scoreEps floors each side of the product score, so a zero gain on
	// one side does not erase the other side's gain.
	scoreEps = 1e-6
)

// pseudocost is the branching history of one integer column: per
// direction (0 down, 1 up), the number of solved children observed and
// the sum of their bound gain per unit of fractionality.
type pseudocost struct {
	n   [2]int32
	sum [2]float64
}

func (pc *pseudocost) reliable() bool {
	return pc.n[0] >= reliableAfter && pc.n[1] >= reliableAfter
}

// branchCand is a fractional integer column at a node: its index j, its
// ordinal k among the searched problem's integer columns (its pseudocost
// slot), and its score.
type branchCand struct {
	j, k  int
	score float64
}

// productScore combines the two sides of a branching decision.
func productScore(down, up float64) float64 {
	return math.Max(down, scoreEps) * math.Max(up, scoreEps)
}

// fracParts returns the distances of v to its floor and to its ceiling:
// the bound change of the down and the up child.
func fracParts(v float64) (down, up float64) {
	down = v - math.Floor(v)
	return down, 1 - down
}

// branchCandidates runs the decision rule's selection step at a node
// with relaxation point x. It returns the unreliable candidates to probe,
// best estimate first and at most k of them, and the best reliable
// candidate (j < 0 when there is none). A variable without history is
// estimated with the mean pseudocost of the variables that have one, or
// 1 before any has. It only reads the pseudocosts; finish writes them.
func (s *solver) branchCandidates(x []float64, k int) (probes []branchCand, best branchCand) {
	mean := [2]float64{1, 1}
	var known [2]int
	var total [2]float64
	for i := range s.pcs {
		for d := 0; d < 2; d++ {
			if n := s.pcs[i].n[d]; n > 0 {
				known[d]++
				total[d] += s.pcs[i].sum[d] / float64(n)
			}
		}
	}
	for d := 0; d < 2; d++ {
		if known[d] > 0 {
			mean[d] = total[d] / float64(known[d])
		}
	}

	best = branchCand{j: -1, k: -1, score: math.Inf(-1)}
	ord := -1
	for j, isInt := range s.work.Integer {
		if !isInt {
			continue
		}
		ord++
		fd, fu := fracParts(x[j])
		if math.Min(fd, fu) <= intTol {
			continue
		}
		psi := mean
		reliable := false
		if s.pcs != nil {
			pc := &s.pcs[ord]
			for d := 0; d < 2; d++ {
				if pc.n[d] > 0 {
					psi[d] = pc.sum[d] / float64(pc.n[d])
				}
			}
			reliable = pc.reliable()
		}
		c := branchCand{j: j, k: ord, score: productScore(psi[0]*fd, psi[1]*fu)}
		if reliable {
			if c.score > best.score {
				best = c
			}
			continue
		}
		// Insert into the probe list, kept sorted by decreasing score;
		// ties keep column order.
		if probes == nil {
			probes = make([]branchCand, 0, k)
		}
		if len(probes) == k && c.score <= probes[k-1].score {
			continue
		}
		if len(probes) < k {
			probes = append(probes, c)
		}
		i := len(probes) - 1
		for ; i > 0 && probes[i-1].score < c.score; i-- {
			probes[i] = probes[i-1]
		}
		probes[i] = c
	}
	return probes, best
}

// observe folds a solved pair of children of n, branched on c, into the
// pseudocosts. An infeasible or unresolved child is not recorded.
// The table is allocated on first use, one slot per integer column: a
// solve that never branches pays nothing.
func (s *solver) observe(n *node, c branchCand, down, up *child) {
	if s.pcs == nil {
		nInt := 0
		for _, isInt := range s.work.Integer {
			if isInt {
				nInt++
			}
		}
		s.pcs = make([]pseudocost, nInt)
	}
	pc := &s.pcs[c.k]
	fd, fu := fracParts(n.relax.X[c.j])
	for d, kid := range [2]*child{down, up} {
		if kid.state != childSolved {
			continue
		}
		f := fd
		if d == 1 {
			f = fu
		}
		pc.n[d]++
		pc.sum[d] += math.Max(kid.bound-n.bound, 0) / f
	}
}

// pairScore is the product score of a solved pair of children of n; an
// infeasible child counts as an infinite gain, and an unresolved one,
// which carries n's bound, as none.
func pairScore(n *node, down, up *child) float64 {
	gain := func(kid *child) float64 {
		if kid.state == childInfeasible {
			return math.Inf(1)
		}
		return kid.bound - n.bound
	}
	return productScore(gain(down), gain(up))
}
