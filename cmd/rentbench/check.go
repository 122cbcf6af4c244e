package main

import (
	"context"
	"errors"
	"fmt"

	"rentmin"
	"rentmin/client"
)

// answer is one served item, reduced to what the checker reads.
type answer struct {
	alloc  *rentmin.Allocation
	proven bool
	err    string
}

func solutionAnswer(s *client.Solution) answer {
	return answer{alloc: &s.Allocation, proven: s.Proven, err: s.Error}
}

// resolveAnswer reads a session event outcome: only an "optimal" status
// is a proven answer.
func resolveAnswer(r *client.SessionResolve) answer {
	return answer{alloc: r.Allocation, proven: r.Status == "optimal", err: r.Error}
}

// checkAnswer certifies a served answer against the problem's cost model
// and the oracle cost: no per-item error, proven optimal, every machine
// count covering its demand with the stored cost matching the machines
// (CheckFeasible), that cost matching the cost the throughputs imply, and
// equal to the oracle's.
func checkAnswer(model *rentmin.CostModel, target int, want int64, a answer) error {
	switch {
	case a.err != "":
		return fmt.Errorf("item error: %s", a.err)
	case !a.proven:
		return errors.New("answer not proven optimal")
	case a.alloc == nil:
		return errors.New("answer has no allocation")
	}
	if err := model.CheckFeasible(*a.alloc, target); err != nil {
		return fmt.Errorf("allocation rejected: %w", err)
	}
	if c := model.Cost(a.alloc.GraphThroughput); c != a.alloc.Cost {
		return fmt.Errorf("reported cost %d, throughputs cost %d", a.alloc.Cost, c)
	}
	if a.alloc.Cost != want {
		return fmt.Errorf("cost %d, oracle %d", a.alloc.Cost, want)
	}
	return nil
}

// tally counts checked items and keeps the first failures for stderr.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one item; it reports whether the item passed.
func (t *tally) record(err error) bool {
	t.attempted++
	return t.flag(err)
}

// flag counts a failed consistency check on an item that record already
// counted (nil is a pass); it reports whether the check passed.
func (t *tally) flag(err error) bool {
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// runOracle fills every input's oracle cost with one in-process
// rentmin.Solve (Workers 1). Sessions first replay their cycle on an
// in-process replica: the effective problem after each event becomes an
// input, so its cold solve is that event's oracle.
func runOracle(ctx context.Context, pl *plan) error {
	for s := range pl.sessions {
		if err := replayStates(ctx, pl, &pl.sessions[s]); err != nil {
			return fmt.Errorf("session %d: %w", s, err)
		}
	}
	for i := range pl.inputs {
		in := &pl.inputs[i]
		sol, err := rentmin.SolveContext(ctx, in.p, &rentmin.SolveOptions{Workers: 1})
		if err != nil {
			return fmt.Errorf("oracle for input %d: %w", i, err)
		}
		if !sol.Proven {
			return fmt.Errorf("oracle for input %d: not proven optimal", i)
		}
		in.want = sol.Alloc.Cost
	}
	return nil
}

func replayStates(ctx context.Context, pl *plan, sp *sessionPlan) error {
	rep, _, err := rentmin.NewSession(ctx, sp.start, &rentmin.SessionOptions{Workers: 1})
	if err != nil {
		return err
	}
	defer rep.Close()
	for k, ev := range sp.events {
		if _, err := rep.Apply(ctx, ev); err != nil {
			return fmt.Errorf("event %d: %w", k, err)
		}
		eff, _ := rep.EffectiveProblem()
		full := rep.Problem()
		sp.steps = append(sp.steps, sessionStep{model: rentmin.NewCostModel(full), target: full.Target, in: len(pl.inputs)})
		pl.inputs = append(pl.inputs, newInput(eff))
	}
	return nil
}
