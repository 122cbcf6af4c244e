package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
	"rentmin/internal/server"
	"rentmin/internal/solve"
)

const (
	// ladderReps is how often each rung runs per input; rungs report the
	// median.
	ladderReps = 3
	// rootCutRounds matches the solver's default root cut rounds.
	rootCutRounds = 4
)

// ladder times each distinct input through every layer's public entry
// point, from the LP kernel up to the HTTP hop to a fleet, without
// touching program code.
type ladder struct {
	daemon daemon
	http   conn // plain daemon: the HTTP rung and the session rung
	pool   *rentmin.SolverPool
	fleet  *fleet
	coord  conn
	owned  []func()
	log    *spanLog
}

func newLadder(ctx context.Context, st *stack, log *spanLog) (*ladder, error) {
	l := &ladder{log: log}
	l.daemon = startDaemon(server.Config{})
	l.http = dial(l.daemon.url)
	l.pool = rentmin.NewSolverPool(1)
	l.owned = append(l.owned, l.daemon.close, l.http.tr.CloseIdleConnections, l.pool.Close)
	l.fleet = st.fleet
	if l.fleet == nil {
		f, err := startFleet(ctx)
		if err != nil {
			l.close()
			return nil, err
		}
		l.fleet = f
		l.owned = append(l.owned, f.close)
	}
	l.coord = dial(l.fleet.coord.url)
	l.owned = append(l.owned, l.coord.tr.CloseIdleConnections)
	return l, nil
}

func (l *ladder) close() {
	for i := len(l.owned) - 1; i >= 0; i-- {
		l.owned[i]()
	}
}

// rung is one layer's public entry point applied to the input under
// test. ms and allocs receive the median over ladderReps calls.
type rung struct {
	name       string
	fn         func() error
	ms, allocs *float64
	ts, as     []float64
}

// ladderRow is one input's rung medians.
type ladderRow struct {
	encodeMs, h1Ms, rootMs, cutMs, presolveMs, ilpMs, rentminMs, poolMs, httpMs, fleetMs float64
	rootAllocs, ilpAllocs, rentminAllocs, poolAllocs, httpAllocs                         float64
	rootIters, reductions                                                                int
	rootObj, cutObj, opt                                                                 float64
	sol                                                                                  rentmin.Solution

	decodeMs, queueMs, serverSolveMs float64
	hopMs, coordQueueMs              float64
}

var statsOpts = &client.Options{Stats: true}

// row runs every rung on input i, ladderReps rounds of every rung in
// turn, so drift falls on all rungs alike. Served answers
// (the HTTP and fleet rungs) are certified like workload answers, and
// their search counters must equal the in-process solve's.
func (l *ladder) row(ctx context.Context, r *runner, i int) (ladderRow, error) {
	in := &r.pl.inputs[i]
	m, t := in.model, in.p.Target
	row := ladderRow{opt: float64(in.want)}

	prob := solve.BuildMILP(m, t)
	_, h1 := solve.BestSingleGraph(m, t)
	red := milp.Presolve(prob, float64(h1.Cost))
	// The solver cuts the presolved root; when presolve alone settles the
	// solve (nothing beats the incumbent, or every column is fixed) no cut
	// loop runs.
	cutRoot, offset := &prob.LP, 0.0
	if red.Infeasible || red.P.LP.NumVars() == 0 {
		cutRoot = nil
	} else if red.Stats != (milp.PresolveStats{}) {
		cutRoot, offset = &red.P.LP, red.ObjOffset
	}
	row.cutObj = row.opt

	one := &rentmin.SolveOptions{Workers: 1}
	var dec, queue, solveMs, hops, coordQueue []float64
	served := func(sol *client.Solution) {
		r.certify(m, t, in.want, solutionAnswer(sol))
		r.tally.flag(sameCounters(row.sol, servedItem{in: i, nodes: sol.Nodes, iters: sol.LPIterations, cuts: sol.Cuts}))
	}
	rungs := []*rung{
		{name: "solve.encode", ms: &row.encodeMs, fn: func() error {
			prob = solve.BuildMILP(m, t)
			return nil
		}},
		{name: "solve.h1", ms: &row.h1Ms, fn: func() error {
			_, h1 = solve.BestSingleGraph(m, t)
			return nil
		}},
		{name: "lp.root", ms: &row.rootMs, allocs: &row.rootAllocs, fn: func() error {
			sol, err := lp.Solve(&prob.LP, nil)
			row.rootIters, row.rootObj = sol.Iterations, sol.Objective
			return err
		}},
		{name: "milp.presolve", ms: &row.presolveMs, fn: func() error {
			st := milp.Presolve(prob, float64(h1.Cost)).Stats
			row.reductions = st.RowsRemoved + st.ColsFixed + st.BoundsTightened + st.CoeffsReduced
			return nil
		}},
		{name: "solve.ilp", ms: &row.ilpMs, allocs: &row.ilpAllocs, fn: func() error {
			_, err := solve.ILP(m, t, &solve.ILPOptions{Workers: 1})
			return err
		}},
		{name: "rentmin.solve", ms: &row.rentminMs, allocs: &row.rentminAllocs, fn: func() error {
			var err error
			row.sol, err = rentmin.SolveContext(ctx, in.p, one)
			return err
		}},
		{name: "rentmin.pool", ms: &row.poolMs, allocs: &row.poolAllocs, fn: func() error {
			_, err := l.pool.SolveContext(ctx, in.p, one)
			return err
		}},
		{name: "http.solve", ms: &row.httpMs, allocs: &row.httpAllocs, fn: func() error {
			sol, err := l.http.Solve(ctx, in.p, statsOpts)
			if err != nil {
				return err
			}
			served(sol)
			for _, p := range sol.Stats.Phases {
				switch p.Name {
				case "decode":
					dec = append(dec, p.DurMs)
				case "queue":
					queue = append(queue, p.DurMs)
				case "solve":
					solveMs = append(solveMs, p.DurMs)
				}
			}
			return nil
		}},
		{name: "fleet.solve", ms: &row.fleetMs, fn: func() error {
			sol, err := l.coord.Solve(ctx, in.p, statsOpts)
			if err != nil {
				return err
			}
			served(sol)
			hops = append(hops, sol.Stats.SolveMs-sol.ElapsedMs)
			coordQueue = append(coordQueue, sol.Stats.QueueWaitMs)
			return nil
		}},
	}
	if cutRoot != nil {
		rungs = append(rungs, &rung{name: "lp.cut_loop", ms: &row.cutMs, fn: func() error {
			g, err := lp.SolveGomory(cutRoot, nil, rootCutRounds)
			row.cutObj = g.Solution.Objective + offset
			return err
		}})
	}

	trace := fmt.Sprintf("rentbench-ladder-%04d", i)
	parent := l.log.add(trace, "ladder", 0, time.Now(), time.Now())
	defer func() { l.log.spans[parent-1].End = ms(time.Since(l.log.t0)) }()
	for k := 0; k < ladderReps; k++ {
		for _, g := range rungs {
			a0 := mallocs()
			start := time.Now()
			err := g.fn()
			end := time.Now()
			a1 := mallocs()
			if err != nil {
				return row, fmt.Errorf("%s: %w", g.name, err)
			}
			l.log.add(trace, g.name, parent, start, end)
			g.ts = append(g.ts, ms(end.Sub(start)))
			g.as = append(g.as, float64(a1-a0))
		}
	}
	for _, g := range rungs {
		*g.ms = median(g.ts)
		if g.allocs != nil {
			*g.allocs = median(g.as)
		}
	}
	row.decodeMs, row.queueMs, row.serverSolveMs = median(dec), median(queue), median(solveMs)
	row.hopMs, row.coordQueueMs = median(hops), median(coordQueue)
	return row, nil
}

// sameCounters checks that a served solve did exactly the work of the
// in-process Workers 1 solve of the same input (both searches are
// sequential, so the counts repeat exactly).
func sameCounters(want rentmin.Solution, got servedItem) error {
	if got.nodes != want.Nodes || got.iters != want.LPIterations || got.cuts != want.Cuts {
		return fmt.Errorf("input %d: served nodes/iterations/cuts %d/%d/%d, in-process %d/%d/%d",
			got.in, got.nodes, got.iters, got.cuts, want.Nodes, want.LPIterations, want.Cuts)
	}
	return nil
}

// sessionSample is one session event: as served over HTTP, and as
// applied by warm and cold in-process replicas of the same session.
type sessionSample struct {
	rtt, applyMs, coldMs float64
	res                  client.SessionResolve
}

// sessionRung opens a session on input i over HTTP and next to it warm
// and cold replicas, then moves the target up by 10 and back. The cold
// replica's answer is the oracle for the moved state.
func (l *ladder) sessionRung(ctx context.Context, r *runner, i int) ([]sessionSample, error) {
	in := &r.pl.inputs[i]
	h, _, err := l.http.NewSession(ctx, in.p, nil)
	if err != nil {
		return nil, err
	}
	defer h.Close(ctx)
	warm, _, err := rentmin.NewSession(ctx, in.p, &rentmin.SessionOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer warm.Close()
	cold, _, err := rentmin.NewSession(ctx, in.p, &rentmin.SessionOptions{Workers: 1, DisableWarm: true})
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	trace := fmt.Sprintf("rentbench-session-%04d", i)
	var out []sessionSample
	for _, target := range []int{in.p.Target + 10, in.p.Target} {
		start := time.Now()
		res, _, err := h.Events(ctx, client.TargetChangeEvent(target))
		if err != nil {
			return nil, err
		}
		l.log.add(trace, "http.event", 0, start, time.Now())
		ev := rentmin.SessionEvent{Kind: rentmin.SessionTargetChange, Target: target}
		s, err := applyBoth(ctx, warm, cold, ev, ms(time.Since(start)), res[0])
		if err != nil {
			return nil, err
		}
		r.certify(in.model, target, s.coldCost, resolveAnswer(&res[0]))
		r.tally.flag(s.counters)
		out = append(out, s.sessionSample)
	}
	return out, nil
}

type appliedSample struct {
	sessionSample
	coldCost int64
	counters error // served search counters differ from the warm replica's
}

// applyBoth applies ev to the warm and (when non-nil) cold replicas.
func applyBoth(ctx context.Context, warm, cold *rentmin.Session, ev rentmin.SessionEvent, rtt float64, served client.SessionResolve) (appliedSample, error) {
	s := appliedSample{sessionSample: sessionSample{rtt: rtt, res: served}}
	start := time.Now()
	wr, err := warm.Apply(ctx, ev)
	if err != nil {
		return s, err
	}
	s.applyMs = ms(time.Since(start))
	if wr.LPIterations != served.LPIterations || wr.Nodes != served.Nodes {
		s.counters = fmt.Errorf("session event %s: served iterations/nodes %d/%d, replica %d/%d",
			ev.Kind, served.LPIterations, served.Nodes, wr.LPIterations, wr.Nodes)
	}
	if cold != nil {
		start = time.Now()
		cr, err := cold.Apply(ctx, ev)
		if err != nil {
			return s, err
		}
		s.coldMs = ms(time.Since(start))
		s.coldCost = cr.Alloc.Cost
	}
	return s, nil
}

// replaySessions replays the session-stream history on in-process
// replicas: the warm replica applies every event the daemon saw (the
// untraced passes, then each traced event, compared counter for
// counter); the cold replica times one cycle, since cold re-solves do
// not depend on history.
func replaySessions(ctx context.Context, r *runner, tr *tracer, untracedPasses int) ([]sessionSample, error) {
	pl := r.pl
	var out []sessionSample
	for s := range pl.sessions {
		sp := &pl.sessions[s]
		warm, _, err := rentmin.NewSession(ctx, sp.start, &rentmin.SessionOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		defer warm.Close()
		cold, _, err := rentmin.NewSession(ctx, sp.start, &rentmin.SessionOptions{Workers: 1, DisableWarm: true})
		if err != nil {
			return nil, err
		}
		defer cold.Close()
		for k := 0; k < untracedPasses; k++ {
			for _, o := range pl.ops {
				if o.sess != s {
					continue
				}
				if _, err := warm.Apply(ctx, sp.events[o.step]); err != nil {
					return nil, err
				}
			}
		}
		seen := 0
		for _, e := range tr.events {
			if e.sess != s {
				continue
			}
			c := cold
			if seen >= len(sp.events) {
				c = nil
			}
			seen++
			a, err := applyBoth(ctx, warm, c, sp.events[e.step], e.rtt, e.res)
			if err != nil {
				return nil, err
			}
			r.tally.flag(a.counters)
			out = append(out, a.sessionSample)
		}
	}
	return out, nil
}

// promValue reads one unlabelled series from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}
