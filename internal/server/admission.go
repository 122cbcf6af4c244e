package server

import (
	"fmt"

	"rentmin"
)

// admit checks one validated problem against the configured size bounds;
// its callers answer a rejection with 422 before the problem is queued.
// The bounds are a latency guard, not a correctness one: branch-and-bound
// cost grows superlinearly with instance size, so an oversize problem
// would pin a solver worker far beyond any reasonable request deadline.
func (s *Server) admit(p *rentmin.Problem) error {
	cfg := s.cfg
	if j := p.NumGraphs(); j > cfg.MaxGraphs {
		return fmt.Errorf("problem has %d recipe graphs, admission limit is %d", j, cfg.MaxGraphs)
	}
	if q := p.NumTypes(); q > cfg.MaxTypes {
		return fmt.Errorf("problem has %d machine types, admission limit is %d", q, cfg.MaxTypes)
	}
	if tasks := p.NumTasks(); tasks > cfg.MaxTasks {
		return fmt.Errorf("problem has %d tasks across its graphs, admission limit is %d", tasks, cfg.MaxTasks)
	}
	if p.Target > cfg.MaxTarget {
		return fmt.Errorf("target throughput %d exceeds admission limit %d", p.Target, cfg.MaxTarget)
	}
	return nil
}
