package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

// TestDebugRecordCountsMatchStats: a stats item's flight-recorder record
// counts exactly the trajectory points its wire stats block carries, both
// read from the one trajectory run takes after the item's step.
func TestDebugRecordCountsMatchStats(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	problems := []*rentmin.Problem{fastProblem(40), fastProblem(70), fastProblem(100)}
	sols, err := c.SolveBatch(ctx, problems, &client.Options{Stats: true})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if len(recs.Solves) != len(sols) {
		t.Fatalf("flight recorder holds %d records, want %d", len(recs.Solves), len(sols))
	}
	for _, rec := range recs.Solves {
		if rec.Endpoint != "batch" || rec.Item < 0 || rec.Item >= len(sols) {
			t.Fatalf("record %s/%d, want a batch item", rec.Endpoint, rec.Item)
		}
		st := sols[rec.Item].Stats
		if st == nil || len(st.Incumbents) == 0 {
			t.Fatalf("item %d: stats %+v, want a trajectory", rec.Item, st)
		}
		if rec.TraceID != st.TraceID || rec.Incumbents != len(st.Incumbents) || rec.Rounds != len(st.Rounds) {
			t.Errorf("item %d: record %s counts %d incumbents and %d rounds; wire %s carries %d and %d",
				rec.Item, rec.TraceID, rec.Incumbents, rec.Rounds, st.TraceID, len(st.Incumbents), len(st.Rounds))
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

// TestRecordSolveLogLine pins the text-handler lines of one finished and
// one failed solve, byte for byte: attribute order, number formats and
// quoting.
func TestRecordSolveLogLine(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if len(groups) == 0 && a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}}))
	s := New(Config{Logger: log})
	defer s.Close()
	s.recordSolve(client.DebugSolve{TraceID: "t1", Endpoint: "batch", Item: 3, Worker: "http://w:1", Start: time.Unix(1, 0),
		QueueWaitMs: 0.125, SolveMs: 12.5, Cost: 1234567, Proven: true})
	s.recordSolve(client.DebugSolve{TraceID: "t2", Endpoint: "session", Item: -1, QueueWaitMs: 1e-7, SolveMs: 300,
		Error: `no "feasible" allocation`}, slog.String("session", "s-9"))
	want := `level=INFO msg="solve finished" trace_id=t1 endpoint=batch item=3 worker=http://w:1 queue_wait_ms=0.125 solve_ms=12.5 cost=1234567 proven=true
level=WARN msg="solve failed" trace_id=t2 endpoint=session item=-1 worker="" queue_wait_ms=1e-07 solve_ms=300 cost=0 proven=false session=s-9 err="no \"feasible\" allocation"
`
	if got := buf.String(); got != want {
		t.Errorf("log lines\n%s\nwant\n%s", got, want)
	}
}

// TestStatsPhasesShareOneClock: the queue and solve phases are the
// durations queue_wait_ms and solve_ms report, and the queue phase ends
// where the solve phase starts, for a /v1/solve and for every batch item.
func TestStatsPhasesShareOneClock(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	opts := &client.Options{Stats: true}
	one, err := c.Solve(ctx, fastProblem(70), opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	sols, err := c.SolveBatch(ctx, []*rentmin.Problem{fastProblem(40), fastProblem(100)}, opts)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, sol := range append([]client.Solution{*one}, sols...) {
		st := sol.Stats
		if sol.Error != "" || st == nil || len(st.Phases) != 3 {
			t.Fatalf("answer %d: error %q, stats %+v, want decode, queue and solve phases", i, sol.Error, st)
		}
		queue, solve := st.Phases[1], st.Phases[2]
		if queue.Name != "queue" || solve.Name != "solve" {
			t.Fatalf("answer %d: phases %+v, want queue then solve", i, st.Phases)
		}
		if queue.DurMs != st.QueueWaitMs || solve.DurMs != st.SolveMs {
			t.Errorf("answer %d: queue phase %gms and solve phase %gms, queue_wait_ms %g and solve_ms %g",
				i, queue.DurMs, solve.DurMs, st.QueueWaitMs, st.SolveMs)
		}
		// The offsets are whole nanoseconds in milliseconds, so the sum
		// agrees with the solve phase's start to within rounding.
		if gap := solve.StartMs - (queue.StartMs + queue.DurMs); math.Abs(gap) > 1e-6 {
			t.Errorf("answer %d: %gms between the end of the queue phase and the solve phase (%+v)", i, gap, st.Phases)
		}
	}
}

// TestLeaseWaitAtDrainIsRecorded: a /v1/solve and a session create still
// waiting for a lease when the daemon drains each leave one flight-recorder
// record carrying the error and one queue-wait sample, as a batch item
// and a session event do.
func TestLeaseWaitAtDrainIsRecorded(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	unblock := holdLease(t, c)
	defer unblock()
	errs := make(chan error, 2)
	go func() {
		_, err := c.Solve(ctx, fastProblem(40), nil)
		errs <- err
	}()
	go func() {
		_, _, err := c.NewSession(ctx, fastProblem(70), nil)
		errs <- err
	}()
	waitHealth(t, c, "both requests wait for the lease", func(h client.Health) bool { return h.QueueDepth == 2 })
	s.BeginDrain()
	for i := 0; i < 2; i++ {
		if e := apiStatus(t, <-errs); e.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("request waiting at drain answered %d %q, want 503", e.StatusCode, e.Message)
		}
	}
	// The lease holder is still solving, so the two waiters are the only
	// records.
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	got := map[string]int{}
	for _, rec := range recs.Solves {
		got[rec.Endpoint]++
		if rec.Item != -1 || rec.Error != errDraining.Error() {
			t.Errorf("record %s/%d %q, want item -1 failed with %q", rec.Endpoint, rec.Item, rec.Error, errDraining)
		}
	}
	if len(recs.Solves) != 2 || got["solve"] != 1 || got["session"] != 1 {
		t.Errorf("flight recorder holds %d records (%v), want one solve and one session", len(recs.Solves), got)
	}
	if n := s.met.qw.Total(); n != 2 {
		t.Errorf("rentmind_queue_wait_ms holds %d samples, want 2", n)
	}
}
