package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/experiments"
	"rentmin/internal/obs"
)

func TestSolveStatsBlock(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	sol, err := c.Solve(context.Background(), fastProblem(70), &client.Options{Stats: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st := sol.Stats
	if st == nil {
		t.Fatal("stats requested but response has no stats block")
	}
	if !obs.ValidTraceID(st.TraceID) {
		t.Errorf("stats trace ID %q is not valid", st.TraceID)
	}
	if st.SolveMs <= 0 {
		t.Errorf("solve_ms = %g, want > 0", st.SolveMs)
	}
	if st.QueueWaitMs < 0 {
		t.Errorf("queue_wait_ms = %g, want >= 0", st.QueueWaitMs)
	}
	// The search counters ride on the Solution itself, not the stats
	// block; cold LP solves are LPSolves - WarmLPSolves.
	if sol.LPSolves == 0 || sol.WarmLPSolves > sol.LPSolves {
		t.Errorf("solution LP counters inconsistent: warm=%d total=%d", sol.WarmLPSolves, sol.LPSolves)
	}
	// A local solve runs the search hooks: the trajectory must be present.
	if len(st.Incumbents) == 0 {
		t.Error("local solve recorded no incumbent points")
	}
	if len(st.Rounds) == 0 {
		t.Error("local solve recorded no round points")
	}
	phases := map[string]client.PhaseTiming{}
	for _, ph := range st.Phases {
		phases[ph.Name] = ph
	}
	if ph, ok := phases["solve"]; !ok || ph.DurMs <= 0 {
		t.Errorf("phases %v: want a solve span of positive duration", st.Phases)
	}
	// The decode phase covers the problem parse and ends before the
	// queue wait begins.
	decode, ok := phases["decode"]
	if !ok || decode.DurMs <= 0 || decode.StartMs+decode.DurMs > phases["queue"].StartMs {
		t.Errorf("phases %v: want a decode span of positive duration ending before queue", st.Phases)
	}
}

// TestBatchStatsBlock: every batch item with stats carries the batch's
// decode phase, its own queue and solve phases and its own search
// trajectory, on one timeline — decode ends before the item's queue
// phase, and each trajectory point falls inside the item's solve phase.
func TestBatchStatsBlock(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	problems := []*rentmin.Problem{fastProblem(40), fastProblem(70), fastProblem(100)}
	sols, err := c.SolveBatch(context.Background(), problems, &client.Options{Stats: true})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, sol := range sols {
		st := sol.Stats
		if sol.Error != "" || st == nil {
			t.Fatalf("item %d: error %q, stats %+v", i, sol.Error, st)
		}
		phases := map[string]client.PhaseTiming{}
		for _, ph := range st.Phases {
			phases[ph.Name] = ph
		}
		solve, ok := phases["solve"]
		if !ok || solve.DurMs <= 0 {
			t.Fatalf("item %d: phases %+v, want a solve phase with positive duration", i, st.Phases)
		}
		queue, ok := phases["queue"]
		if !ok {
			t.Errorf("item %d: phases %+v missing the queue span", i, st.Phases)
		}
		// The decode phase covers the envelope and every document parse;
		// all items report the same one, ending before their queue wait.
		decode, ok := phases["decode"]
		if !ok || decode.DurMs <= 0 || decode.StartMs+decode.DurMs > queue.StartMs {
			t.Errorf("item %d: phases %+v, want a decode span of positive duration ending before queue", i, st.Phases)
		}
		if first := sols[0].Stats.Phases[0]; decode != first {
			t.Errorf("item %d: decode phase %+v, item 0 reports %+v", i, decode, first)
		}
		if len(st.Incumbents) == 0 {
			t.Errorf("item %d: no incumbent points", i)
		}
		if sol.Nodes > 0 && len(st.Rounds) == 0 {
			t.Errorf("item %d: %d nodes but no round points", i, sol.Nodes)
		}
		within := func(at float64) bool { return at >= solve.StartMs && at <= solve.StartMs+solve.DurMs }
		for _, ip := range st.Incumbents {
			if !within(ip.AtMs) {
				t.Errorf("item %d: incumbent at %gms outside solve phase %+v", i, ip.AtMs, solve)
			}
		}
		for _, rp := range st.Rounds {
			if !within(rp.AtMs) {
				t.Errorf("item %d: round %d at %gms outside solve phase %+v", i, rp.Round, rp.AtMs, solve)
			}
		}
	}
}

func TestStatsOmittedWithoutOptIn(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	sol, err := c.Solve(context.Background(), fastProblem(40), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Stats != nil {
		t.Errorf("stats block present without opt-in: %+v", sol.Stats)
	}
	if sol.LPSolves == 0 || sol.LPSolves < sol.WarmLPSolves {
		t.Errorf("wire solution missing the warm split: warm=%d total=%d",
			sol.WarmLPSolves, sol.LPSolves)
	}
}

func TestClientTraceIDAdopted(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := client.WithTraceID(context.Background(), "trace-adopt-test")
	sol, err := c.Solve(ctx, fastProblem(40), &client.Options{Stats: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Stats == nil || sol.Stats.TraceID != "trace-adopt-test" {
		t.Fatalf("server minted its own ID instead of adopting the caller's: %+v", sol.Stats)
	}
	recs, err := c.DebugSolves(context.Background(), 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if len(recs.Solves) == 0 || recs.Solves[0].TraceID != "trace-adopt-test" {
		t.Fatalf("flight recorder did not file the solve under the caller's ID: %+v", recs.Solves)
	}
}

func TestDebugSolvesRing(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, DebugSolves: 2})
	ctx := context.Background()
	for _, target := range []int{10, 40, 70} {
		if _, err := c.Solve(ctx, fastProblem(target), nil); err != nil {
			t.Fatalf("Solve target %d: %v", target, err)
		}
	}
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if recs.Total != 3 {
		t.Errorf("recorder total = %d, want 3", recs.Total)
	}
	if len(recs.Solves) != 2 {
		t.Fatalf("ring holds %d records, want the configured 2", len(recs.Solves))
	}
	for i, rec := range recs.Solves {
		if rec.Endpoint != "solve" || !obs.ValidTraceID(rec.TraceID) {
			t.Errorf("record %d = %+v, want endpoint solve with a valid trace ID", i, rec)
		}
		// A single solve is item -1, so it never reads as batch item 0.
		if rec.Item != -1 {
			t.Errorf("record %d item = %d, want -1 for a /v1/solve", i, rec.Item)
		}
		if rec.LPSolves <= 0 || rec.SolveMs <= 0 {
			t.Errorf("record %d missing solver statistics: %+v", i, rec)
		}
	}
	// Newest first: the last solve (target 70, cost 124) leads.
	if recs.Solves[0].Cost != 124 {
		t.Errorf("newest record cost = %d, want 124", recs.Solves[0].Cost)
	}
}

func TestTracePropagationAcrossFleet(t *testing.T) {
	// A coordinator with two real worker daemons: a trace ID minted by the
	// caller must ride the batch dispatches to whichever worker answered
	// and surface in that worker's flight recorder.
	_, c := newElasticCoordinator(t, Config{})
	ctx := context.Background()
	w1 := startWorkerDaemon(t, 2)
	w2 := startWorkerDaemon(t, 2)
	for _, hs := range []*httptest.Server{w1, w2} {
		if _, err := c.RegisterWorker(ctx, hs.URL); err != nil {
			t.Fatalf("RegisterWorker(%s): %v", hs.URL, err)
		}
	}

	traceID := client.NewTraceID()
	tctx := client.WithTraceID(ctx, traceID)
	targets := []int{10, 40, 70, 100}
	problems := make([]*rentmin.Problem, 0, len(targets))
	for _, target := range targets {
		problems = append(problems, fastProblem(target))
	}
	sols, err := c.SolveBatch(tctx, problems, &client.Options{Stats: true})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}

	workers := map[string]bool{}
	for i, sol := range sols {
		if sol.Error != "" {
			t.Fatalf("item %d failed: %s", i, sol.Error)
		}
		if sol.Stats == nil {
			t.Fatalf("item %d has no stats block", i)
		}
		if sol.Stats.TraceID != traceID {
			t.Errorf("item %d trace ID %q, want the caller's %q", i, sol.Stats.TraceID, traceID)
		}
		if sol.Stats.Worker != w1.URL && sol.Stats.Worker != w2.URL {
			t.Errorf("item %d attributed to %q, want one of the two workers", i, sol.Stats.Worker)
		}
		workers[sol.Stats.Worker] = true
	}

	// Every worker that answered an item filed the solve under the same
	// trace ID in its own flight recorder — the cross-process correlation
	// the header exists for.
	for _, hs := range []*httptest.Server{w1, w2} {
		if !workers[hs.URL] {
			continue
		}
		recs, err := client.New(hs.URL).DebugSolves(ctx, 0)
		if err != nil {
			t.Fatalf("worker DebugSolves: %v", err)
		}
		found := false
		for _, rec := range recs.Solves {
			if rec.TraceID == traceID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("worker %s answered an item but its recorder has no record under %q: %+v",
				hs.URL, traceID, recs.Solves)
		}
	}

	// The coordinator's own recorder holds the per-item batch records with
	// worker attribution.
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("coordinator DebugSolves: %v", err)
	}
	batchItems := 0
	for _, rec := range recs.Solves {
		if rec.Endpoint == "batch" && rec.TraceID == traceID {
			batchItems++
			if rec.Worker == "" {
				t.Errorf("batch item %d has no worker attribution", rec.Item)
			}
		}
	}
	if batchItems != len(targets) {
		t.Errorf("coordinator recorded %d batch items under the trace, want %d", batchItems, len(targets))
	}

	// And the dispatch RTT series appears for workers that served traffic.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "rentmind_worker_dispatch_rtt_ms") {
		t.Error("coordinator /metrics missing rentmind_worker_dispatch_rtt_ms after dispatches")
	}
}

func TestMetricsRatioGuardsOnZeroTraffic(t *testing.T) {
	// Regression: with zero cache lookups the ratio gauges must emit 0,
	// not NaN (0/0), which breaks Prometheus scrapes.
	_, c := newTestServer(t, Config{Workers: 1})
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rentmind_problem_cache_hit_ratio 0\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("fresh /metrics missing %q", strings.TrimSpace(want))
		}
	}
	if strings.Contains(metrics, "NaN") {
		t.Error("fresh /metrics emits NaN")
	}
}

func TestQueueWaitMetric(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	if _, err := c.Solve(context.Background(), fastProblem(40), nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rentmind_queue_wait_ms{quantile="0.5"}`,
		`rentmind_queue_wait_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestPprofGate(t *testing.T) {
	get := func(cfg Config, path string) int {
		t.Helper()
		s := New(cfg)
		ts := httptest.NewServer(s)
		defer func() {
			ts.Close()
			s.Close()
		}()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(Config{Workers: 1, Pprof: true}, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof enabled: cmdline answered %d, want 200", code)
	}
	if code := get(Config{Workers: 1}, "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof disabled: cmdline answered %d, want 404", code)
	}
}

func TestDebugSolvesRejectsBadCount(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, q := range []string{"?n=-1", "?n=x"} {
		r := httptest.NewRequest("GET", "/debug/solves"+q, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("GET /debug/solves%s = %d, want 400", q, w.Code)
		}
	}
}

// TestSolveIsABatchOfOne solves one Fig. 3 instance through /v1/solve
// and through a one-item /v1/batch: both take the same path, so they
// report the same cost and search counters, the same phases in the same
// order, and one flight-recorder record each.
func TestSolveIsABatchOfOne(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	p, err := rentmin.Generate(experiments.Fig3Setting().Gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Target = 100
	opts := &client.Options{Stats: true}
	one, err := c.Solve(ctx, p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	batch, err := c.SolveBatch(ctx, []*rentmin.Problem{p}, opts)
	if err != nil || batch[0].Error != "" {
		t.Fatalf("SolveBatch: %v %q", err, batch[0].Error)
	}
	if one.Allocation.Cost != batch[0].Allocation.Cost || one.SearchStats != batch[0].SearchStats {
		t.Errorf("solve: cost %d %+v; batch of one: cost %d %+v",
			one.Allocation.Cost, one.SearchStats, batch[0].Allocation.Cost, batch[0].SearchStats)
	}
	for name, st := range map[string]*client.SolveStats{"solve": one.Stats, "batch": batch[0].Stats} {
		var phases []string
		for _, ph := range st.Phases {
			phases = append(phases, ph.Name)
		}
		if strings.Join(phases, ",") != "decode,queue,solve" {
			t.Errorf("%s phases %v, want decode, queue, solve", name, phases)
		}
	}
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if len(recs.Solves) != 2 {
		t.Fatalf("flight recorder holds %d records, want 2", len(recs.Solves))
	}
	// Newest first.
	if b, s := recs.Solves[0], recs.Solves[1]; b.Endpoint != "batch" || b.Item != 0 || s.Endpoint != "solve" || s.Item != -1 {
		t.Errorf("records %s/%d and %s/%d, want batch/0 and solve/-1", b.Endpoint, b.Item, s.Endpoint, s.Item)
	}
}
