package session

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/solve"
)

// FuzzSessionEvents hardens the online re-optimization loop: a random
// event sequence is streamed into a session, and after every applied
// event the committed state must agree with a FRESH COLD SOLVE of the
// replayed (mutated, outage-filtered) problem — same status, same cost —
// and the committed allocation must be feasible for that problem.
// Invalid events must report ErrInvalidEvent and change nothing.
func FuzzSessionEvents(f *testing.F) {
	f.Add(uint64(1), uint8(6))
	f.Add(uint64(7), uint8(10))
	f.Add(uint64(42), uint8(14))
	f.Add(uint64(0xF00D), uint8(3))
	f.Add(uint64(0xBEEF), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(steps)%12
		ctx := context.Background()

		p := core.IllustratingExample()
		p.Target = 20 + r.Intn(60)
		s, res, err := New(ctx, p, Options{ILP: solve.ILPOptions{DisablePresolve: r.Intn(2) == 0}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		verify(t, s, res)

		for i := 0; i < n; i++ {
			ev := randomEvent(r, s)
			before := s.State()
			res, err := s.Apply(ctx, ev)
			if err != nil {
				if !errors.Is(err, ErrInvalidEvent) {
					t.Fatalf("step %d (%+v): %v", i, ev, err)
				}
				after := s.State()
				if after.Events != before.Events || after.Cost != before.Cost {
					t.Fatalf("step %d: invalid event mutated state (%+v -> %+v)", i, before, after)
				}
				continue
			}
			verify(t, s, res)
		}
	})
}

// randomEvent draws one event, deliberately including some invalid ones.
func randomEvent(r *rand.Rand, s *Session) Event {
	st := s.State()
	switch r.Intn(7) {
	case 0:
		g := &core.Graph{Name: "fz", Tasks: []core.Task{{ID: 0, Type: r.Intn(5)}}} // type 4 is invalid
		if r.Intn(4) == 0 {
			g.Tasks = append(g.Tasks, core.Task{ID: 1, Type: r.Intn(4)})
			g.Edges = []core.Edge{{From: 0, To: 1}}
		}
		return Event{Kind: RecipeArrival, Graph: g}
	case 1:
		return Event{Kind: RecipeDeparture, GraphIndex: r.Intn(st.Graphs + 1)}
	case 2:
		return Event{Kind: TargetChange, Target: r.Intn(90) - 5}
	case 3:
		return Event{Kind: PriceChange, Type: r.Intn(5), Price: r.Intn(60) - 2}
	case 4:
		return Event{Kind: Outage, Type: r.Intn(5)}
	case 5:
		return Event{Kind: Restore, Type: r.Intn(5)}
	default:
		return Event{Kind: "bogus"}
	}
}

// verify compares the session's committed state against a cold solve of
// the replayed effective problem.
func verify(t *testing.T, s *Session, res *Resolve) {
	t.Helper()
	eff, idx := s.EffectiveProblem()
	st := s.State()

	if eff.Target <= 0 {
		if res.Status != StatusOptimal || st.Cost != 0 {
			t.Fatalf("zero target: status %s cost %d", res.Status, st.Cost)
		}
		return
	}
	if eff.NumGraphs() == 0 {
		if res.Status != StatusInfeasible || st.Feasible || st.Cost != 0 {
			t.Fatalf("all graphs offline: status %s feasible %v cost %d", res.Status, st.Feasible, st.Cost)
		}
		return
	}

	m := core.NewCostModel(eff)
	cold, err := solve.ILP(m, eff.Target, nil)
	if err != nil {
		t.Fatalf("cold replay solve: %v", err)
	}
	if !cold.Proven {
		t.Fatalf("cold replay solve unproven: %+v", cold)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("session status %s, cold replay proves optimal", res.Status)
	}
	if st.Cost != cold.Alloc.Cost {
		t.Fatalf("session cost %d, cold replay cost %d (target %d, %d/%d graphs online)",
			st.Cost, cold.Alloc.Cost, eff.Target, eff.NumGraphs(), st.Graphs)
	}

	// The full-shape allocation must be feasible for the effective
	// problem: online graphs meet the target, machine counts cover
	// demand, excluded graphs and offline types sit at zero.
	effRho := make([]int, eff.NumGraphs())
	for i, j := range idx {
		effRho[i] = st.Alloc.GraphThroughput[j]
	}
	effAlloc := m.NewAllocation(effRho)
	if err := m.CheckFeasible(effAlloc, eff.Target); err != nil {
		t.Fatalf("committed allocation infeasible for the replayed problem: %v", err)
	}
	if effAlloc.Cost != st.Cost {
		t.Fatalf("effective alloc re-prices to %d, session says %d", effAlloc.Cost, st.Cost)
	}
	online := map[int]bool{}
	for _, j := range idx {
		online[j] = true
	}
	for j, rho := range st.Alloc.GraphThroughput {
		if !online[j] && rho != 0 {
			t.Fatalf("excluded graph %d has throughput %d", j, rho)
		}
	}
	for _, q := range st.Offline {
		if st.Alloc.Machines[q] != 0 {
			t.Fatalf("offline type %d has %d machines", q, st.Alloc.Machines[q])
		}
	}
}
