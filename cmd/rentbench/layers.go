package main

import (
	"context"
	"fmt"
	"time"
)

// runTraced is the traced run: after an untimed warm-up pass the
// workload's stack serves untraced passes for d/2, then traced passes
// for d/2 (every op with a trace ID and the stats block); then the
// ladder runs every distinct input through each layer. It returns the
// per-layer metrics.
func runTraced(ctx context.Context, r *runner, d time.Duration, spansDir, workload string, seed uint64) (map[string]float64, error) {
	pl := r.pl
	r.measure(ctx, 0, nil) // untimed warm-up pass
	// Half the time untraced, half traced: trace.overhead compares them.
	base := r.measure(ctx, d/2, nil)
	log := &spanLog{t0: time.Now()}
	tr := &tracer{log: log, keep: len(pl.ops)}
	var certify []float64
	r.certifyUs = &certify
	r.measure(ctx, d/2, tr)
	r.certifyUs = nil

	l, err := newLadder(ctx, r.st, log)
	if err != nil {
		return nil, err
	}
	defer l.close()
	rows := make([]ladderRow, len(pl.inputs))
	for i := range pl.inputs {
		if rows[i], err = l.row(ctx, r, i); err != nil {
			return nil, fmt.Errorf("ladder input %d: %w", i, err)
		}
	}
	for _, s := range tr.served {
		r.tally.flag(sameCounters(rows[s.in].sol, s))
	}
	var events []sessionSample
	if len(pl.sessions) > 0 {
		events, err = replaySessions(ctx, r, tr, 1+base.passes)
	} else {
		for i := range pl.inputs {
			var s []sessionSample
			if s, err = l.sessionRung(ctx, r, i); err != nil {
				break
			}
			events = append(events, s...)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("session replicas: %w", err)
	}
	lay, err := layerMetrics(ctx, l, rows, events)
	if err != nil {
		return nil, err
	}
	lay["server.rejected"] = float64(tr.rejected)
	lay["core.certify_us"] = median(certify)
	lay["trace.overhead"] = median(tr.rtts)/median(base.lats) - 1
	if err := log.write(spansDir, workload, seed); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return lay, nil
}

func avg(rows []ladderRow, f func(*ladderRow) float64) float64 {
	xs := make([]float64, len(rows))
	for i := range rows {
		xs[i] = f(&rows[i])
	}
	return mean(xs)
}

// layerMetrics derives the per-layer metrics. Rung times are means over
// inputs of each input's median; derived rungs are differences of those
// means; counters come from the in-process solves; session times are
// medians over events.
func layerMetrics(ctx context.Context, l *ladder, rows []ladderRow, events []sessionSample) (map[string]float64, error) {
	lay := map[string]float64{}
	var rootMs, rootIters, gapCut, gapAll, lpSolves, warmLP, nodes float64
	for i := range rows {
		r := &rows[i]
		rootMs += r.rootMs
		rootIters += float64(r.rootIters)
		gapCut += r.cutObj - r.rootObj
		gapAll += r.opt - r.rootObj
		lpSolves += float64(r.sol.LPSolves)
		warmLP += float64(r.sol.WarmLPSolves)
		nodes += float64(max(r.sol.Nodes, 1))
	}
	lay["lp.root_ms"] = avg(rows, func(r *ladderRow) float64 { return r.rootMs })
	lay["lp.root_iters"] = rootIters / float64(len(rows))
	lay["lp.ns_per_iter"] = rootMs * 1e6 / max(rootIters, 1)
	lay["lp.root_allocs"] = avg(rows, func(r *ladderRow) float64 { return r.rootAllocs })
	lay["lp.cut_loop_ms"] = avg(rows, func(r *ladderRow) float64 { return r.cutMs })
	lay["lp.cut_gap_closed"] = 1
	if gapAll > 1e-9 {
		lay["lp.cut_gap_closed"] = gapCut / gapAll
	}
	lay["lp.iters_per_op"] = avg(rows, func(r *ladderRow) float64 { return float64(r.sol.LPIterations) })

	lay["milp.presolve_ms"] = avg(rows, func(r *ladderRow) float64 { return r.presolveMs })
	lay["milp.presolve_reductions"] = avg(rows, func(r *ladderRow) float64 { return float64(r.reductions) })
	lay["milp.nodes_per_op"] = avg(rows, func(r *ladderRow) float64 { return float64(r.sol.Nodes) })
	lay["milp.lp_solves_per_node"] = lpSolves / nodes
	lay["milp.warm_lp_share"] = warmLP / max(lpSolves, 1)
	lay["milp.cuts_per_op"] = avg(rows, func(r *ladderRow) float64 { return float64(r.sol.Cuts) })

	lay["solve.encode_us"] = 1000 * avg(rows, func(r *ladderRow) float64 { return r.encodeMs })
	lay["solve.h1_us"] = 1000 * avg(rows, func(r *ladderRow) float64 { return r.h1Ms })
	lay["solve.ilp_ms"] = avg(rows, func(r *ladderRow) float64 { return r.ilpMs })
	lay["solve.ilp_allocs"] = avg(rows, func(r *ladderRow) float64 { return r.ilpAllocs })
	lay["milp.tree_ms"] = lay["solve.ilp_ms"] - lay["lp.cut_loop_ms"] - lay["milp.presolve_ms"]

	lay["rentmin.solve_ms"] = avg(rows, func(r *ladderRow) float64 { return r.rentminMs })
	lay["rentmin.facade_us"] = 1000 * (lay["rentmin.solve_ms"] - lay["solve.ilp_ms"])
	lay["rentmin.pool_us"] = 1000 * avg(rows, func(r *ladderRow) float64 { return r.poolMs - r.rentminMs })
	lay["rentmin.solve_allocs"] = avg(rows, func(r *ladderRow) float64 { return r.rentminAllocs })

	lay["http.rtt_ms"] = avg(rows, func(r *ladderRow) float64 { return r.httpMs })
	lay["server.decode_ms"] = avg(rows, func(r *ladderRow) float64 { return r.decodeMs })
	lay["server.queue_wait_ms"] = avg(rows, func(r *ladderRow) float64 { return r.queueMs })
	lay["server.solve_ms"] = avg(rows, func(r *ladderRow) float64 { return r.serverSolveMs })
	lay["http.overhead_ms"] = lay["http.rtt_ms"] - lay["server.solve_ms"]
	lay["http.overhead_allocs"] = avg(rows, func(r *ladderRow) float64 { return r.httpAllocs - r.poolAllocs })

	lay["pool.hop_ms"] = avg(rows, func(r *ladderRow) float64 { return r.hopMs })
	lay["server.coord_queue_wait_ms"] = avg(rows, func(r *ladderRow) float64 { return r.coordQueueMs })
	var dispatched, top, faults int64
	var rtt []float64
	for _, w := range l.fleet.pool.WorkerStats() {
		dispatched += w.Dispatched
		top = max(top, w.Dispatched)
		faults += w.Faults
		if w.RTTSamples > 0 {
			rtt = append(rtt, w.RTTp50Ms)
		}
	}
	lay["pool.dispatch_rtt_p50_ms"] = mean(rtt)
	lay["pool.item_share_max"] = float64(top) / float64(max(dispatched, 1))
	lay["pool.faults"] = float64(faults)
	var hits, lookups, uploads float64
	for _, w := range l.fleet.workers {
		text, err := w.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("worker metrics: %w", err)
		}
		h := promValue(text, "rentmind_problem_cache_hits_total")
		hits += h
		lookups += h + promValue(text, "rentmind_problem_cache_misses_total")
		uploads += promValue(text, "rentmind_problem_uploads_total")
	}
	lay["pool.cache_hit_ratio"] = hits / max(lookups, 1)
	lay["pool.uploads"] = uploads

	var rtts, solves, overhead, apply, cold, iters, nodesEv, churn []float64
	var warmN, rootWarmN float64
	for _, e := range events {
		rtts = append(rtts, e.rtt)
		solves = append(solves, e.res.SolveMs)
		overhead = append(overhead, e.rtt-e.res.SolveMs)
		apply = append(apply, e.applyMs)
		if e.coldMs > 0 {
			cold = append(cold, e.coldMs)
		}
		iters = append(iters, float64(e.res.LPIterations))
		nodesEv = append(nodesEv, float64(e.res.Nodes))
		churn = append(churn, float64(e.res.Churn))
		if e.res.Warm {
			warmN++
		}
		if e.res.RootLPWarm {
			rootWarmN++
		}
	}
	n := float64(max(len(events), 1))
	lay["session.rtt_ms"] = median(rtts)
	lay["session.solve_ms"] = median(solves)
	lay["session.overhead_ms"] = median(overhead)
	lay["session.apply_ms"] = median(apply)
	lay["session.cold_apply_ms"] = median(cold)
	lay["session.warm_share"] = warmN / n
	lay["session.root_lp_warm_share"] = rootWarmN / n
	lay["session.iters_per_event"] = mean(iters)
	lay["session.nodes_per_event"] = mean(nodesEv)
	lay["session.churn_per_event"] = mean(churn)
	return lay, nil
}
