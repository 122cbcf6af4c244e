package heuristics

import (
	"rentmin/internal/core"
	"rentmin/internal/rng"
)

// Algorithm is a uniform handle over the heuristics, used by the
// experiment harness to run them side by side.
type Algorithm struct {
	// Name is the paper's label (H0, H1, H2, H31, H32, H32Jump).
	Name string
	// Run executes the heuristic. Deterministic algorithms ignore src.
	Run func(m *core.CostModel, target int, opts *Options, src *rng.Source) core.Allocation
}

// All returns the heuristics in the order of the paper's result tables:
// H1, H2, H31, H32, H32Jump. (H0 is defined by the paper but not shown in
// its results; see WithH0.)
func All() []Algorithm {
	return []Algorithm{
		{Name: "H1", Run: func(m *core.CostModel, t int, _ *Options, _ *rng.Source) core.Allocation {
			return H1(m, t)
		}},
		{Name: "H2", Run: func(m *core.CostModel, t int, o *Options, s *rng.Source) core.Allocation {
			return H2(m, t, o, s)
		}},
		{Name: "H31", Run: func(m *core.CostModel, t int, o *Options, s *rng.Source) core.Allocation {
			return H31(m, t, o, s)
		}},
		{Name: "H32", Run: func(m *core.CostModel, t int, o *Options, _ *rng.Source) core.Allocation {
			return H32(m, t, o)
		}},
		{Name: "H32Jump", Run: func(m *core.CostModel, t int, o *Options, s *rng.Source) core.Allocation {
			return H32Jump(m, t, o, s)
		}},
	}
}

// WithH0 returns All plus the H0 random-split baseline in front.
func WithH0() []Algorithm {
	h0 := Algorithm{Name: "H0", Run: func(m *core.CostModel, t int, _ *Options, s *rng.Source) core.Allocation {
		return H0(m, t, s)
	}}
	return append([]Algorithm{h0}, All()...)
}
