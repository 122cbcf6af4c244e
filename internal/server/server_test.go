package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

// newTestServer starts a Server behind httptest and returns it with a
// typed client. Cleanup runs in the shutdown order the daemon uses:
// drain, stop HTTP, release the pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.BeginDrain()
		ts.Close()
		s.Close()
	})
	return s, client.New(ts.URL)
}

func fastProblem(target int) *rentmin.Problem {
	p := rentmin.IllustratingExample()
	p.Target = target
	return p
}

// slowServerProblem is a Fig8-scale instance needing multiple seconds of
// exact solve — the anvil for deadline, queue and drain tests. The seed
// matches the package-level cancellation test's probed instance.
func slowServerProblem(t *testing.T) *rentmin.Problem {
	t.Helper()
	p, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 10, MinTasks: 100, MaxTasks: 200, MutatePercent: 0.3,
		NumTypes: 50, CostMin: 1, CostMax: 100,
		ThroughputMin: 5, ThroughputMax: 25,
	}, 0xF198)
	if err != nil {
		t.Fatal(err)
	}
	p.Target = 120
	return p
}

// waitHealth polls /healthz until cond holds (the gauges are updated
// asynchronously by the handler goroutines).
func waitHealth(t *testing.T, c *client.Client, what string, cond func(client.Health) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := c.Health(context.Background())
		if err == nil && cond(h) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health never reached: %s", what)
}

func apiStatus(t *testing.T, err error) *client.APIError {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *client.APIError", err)
	}
	return apiErr
}

func TestSolveRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	sol, err := c.Solve(context.Background(), fastProblem(70), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Proven || sol.Allocation.Cost != 124 {
		t.Errorf("got cost %d proven=%v, want proven cost 124", sol.Allocation.Cost, sol.Proven)
	}
	if sol.Nodes <= 0 || sol.LPSolves <= 0 {
		t.Errorf("missing solver statistics: %+v", sol)
	}
}

func TestSolveTargetOverride(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	sol, err := c.Solve(context.Background(), fastProblem(10), &client.Options{Target: 70})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Allocation.Cost != 124 {
		t.Errorf("target override ignored: cost %d, want 124", sol.Allocation.Cost)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	targets := []int{10, 40, 70}
	problems := make([]*rentmin.Problem, len(targets))
	for i, target := range targets {
		problems[i] = fastProblem(target)
	}
	sols, err := c.SolveBatch(context.Background(), problems, nil)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	wantCosts := []int64{28, 69, 124}
	for i, sol := range sols {
		if sol.Error != "" {
			t.Errorf("item %d failed: %s", i, sol.Error)
			continue
		}
		if !sol.Proven || sol.Allocation.Cost != wantCosts[i] {
			t.Errorf("item %d: cost %d proven=%v, want proven %d", i, sol.Allocation.Cost, sol.Proven, wantCosts[i])
		}
	}
}

func TestMalformedRequestsRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	postTo := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(serverURL(c)+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int {
		t.Helper()
		return postTo("/v1/solve", body)
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("syntactically invalid body: %d, want 400", code)
	}
	if code := post(`{"problem": {}, "surprise": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown envelope field: %d, want 400", code)
	}
	if code := post(`{"problem": {"bogus_field": true}}`); code != http.StatusBadRequest {
		t.Errorf("unknown problem field: %d, want 400", code)
	}
	if code := post(`{"problem": {"application":{"graphs":[]},"platform":{"machines":[]},"target_throughput":5}}`); code != http.StatusBadRequest {
		t.Errorf("invalid problem: %d, want 400", code)
	}
	if code := post(`{}`); code != http.StatusBadRequest {
		t.Errorf("missing problem: %d, want 400", code)
	}

	// Solver ablation switches are not part of the wire: a stale client
	// still sending one is refused, not silently served the default.
	var doc bytes.Buffer
	if err := rentmin.WriteProblem(&doc, fastProblem(70)); err != nil {
		t.Fatal(err)
	}
	valid := `{"problem": ` + doc.String()
	for _, path := range []string{"/v1/solve", "/v1/sessions"} {
		if code := postTo(path, valid+`}`); code != http.StatusOK {
			t.Fatalf("POST %s with a valid problem: %d, want 200", path, code)
		}
	}
	for _, tc := range []struct{ path, field string }{
		{"/v1/solve", "disable_presolve"},
		{"/v1/solve", "disable_lp_warm_start"},
		{"/v1/sessions", "disable_presolve"},
		{"/v1/sessions", "disable_warm"},
	} {
		if code := postTo(tc.path, valid+`, "`+tc.field+`": true}`); code != http.StatusBadRequest {
			t.Errorf("POST %s with removed field %q: %d, want 400", tc.path, tc.field, code)
		}
	}

	// Wrong method on a registered route.
	resp, err := http.Get(serverURL(c) + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

func TestAdmissionControl422(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxGraphs: 4, MaxTarget: 1000, MaxBatch: 2})
	ctx := context.Background()

	big := fastProblem(70)
	for len(big.App.Graphs) <= 4 {
		big.App.Graphs = append(big.App.Graphs, big.App.Graphs[0])
	}
	apiErr := apiStatus(t, errFrom(c.Solve(ctx, big, nil)))
	if apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversize graphs: HTTP %d, want 422", apiErr.StatusCode)
	}
	if apiErr.Temporary() {
		t.Errorf("admission rejection must not be Temporary")
	}

	apiErr = apiStatus(t, errFrom(c.Solve(ctx, fastProblem(5000), nil)))
	if apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversize target: HTTP %d, want 422", apiErr.StatusCode)
	}

	// Batch item over the bound, and batch over MaxBatch.
	_, err := c.SolveBatch(ctx, []*rentmin.Problem{fastProblem(70), big}, nil)
	if apiErr = apiStatus(t, err); apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversize batch item: HTTP %d, want 422", apiErr.StatusCode)
	}
	if !strings.Contains(apiErr.Message, "problem 1") {
		t.Errorf("batch rejection should name the offending item, got %q", apiErr.Message)
	}
	_, err = c.SolveBatch(ctx, []*rentmin.Problem{fastProblem(10), fastProblem(20), fastProblem(30)}, nil)
	if apiErr = apiStatus(t, err); apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("over-long batch: HTTP %d, want 422", apiErr.StatusCode)
	}
}

func TestQueueOverflow429(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := slowServerProblem(t)

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	defer cancelB()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = c.Solve(ctxA, slow, &client.Options{TimeLimit: 30 * time.Second}) }()
	waitHealth(t, c, "one solve in flight", func(h client.Health) bool { return h.InFlight == 1 })
	go func() { defer wg.Done(); _, _ = c.Solve(ctxB, slow, &client.Options{TimeLimit: 30 * time.Second}) }()
	waitHealth(t, c, "one solve queued", func(h client.Health) bool { return h.QueueDepth == 1 })

	// Workers+QueueDepth slots are taken: the next request must bounce.
	_, err := c.Solve(context.Background(), fastProblem(70), nil)
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", apiErr.StatusCode)
	}
	if !apiErr.Temporary() || apiErr.RetryAfter <= 0 {
		t.Errorf("429 must carry a positive Retry-After and be Temporary: %+v", apiErr)
	}

	// Cancelling the occupants must free the system quickly — their
	// searches stop between nodes instead of running out their 30s budgets.
	cancelA()
	cancelB()
	wg.Wait()
	waitHealth(t, c, "queue drained after cancellation", func(h client.Health) bool {
		return h.InFlight == 0 && h.QueueDepth == 0
	})
	if sol, err := c.Solve(context.Background(), fastProblem(70), nil); err != nil || sol.Allocation.Cost != 124 {
		t.Errorf("server unusable after overflow episode: %v %+v", err, sol)
	}
}

// A request deadline expiring mid-solve returns 200 with the best-so-far
// incumbent and Proven == false — in well under the instance's cold solve
// time (multiple seconds).
func TestDeadlineMidSolveReturnsIncumbent(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	slow := slowServerProblem(t)

	start := time.Now()
	sol, err := c.Solve(context.Background(), slow, &client.Options{TimeLimit: 300 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Proven {
		t.Skipf("instance proved optimal in %v, too fast to observe the deadline", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline-limited solve took %v, want well under the cold solve time", elapsed)
	}
	total := 0
	for _, r := range sol.Allocation.GraphThroughput {
		total += r
	}
	if total < slow.Target {
		t.Errorf("incumbent throughput %d below target %d", total, slow.Target)
	}
	if sol.Allocation.Cost <= 0 || sol.Bound <= 0 || sol.Bound > float64(sol.Allocation.Cost) {
		t.Errorf("implausible incumbent: cost %d bound %g", sol.Allocation.Cost, sol.Bound)
	}
}

// A client disconnect must cancel the server-side search: the worker
// frees long before the request's generous time limit.
func TestClientDisconnectCancelsSearch(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	slow := slowServerProblem(t)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, slow, &client.Options{TimeLimit: 30 * time.Second})
		done <- err
	}()
	waitHealth(t, c, "solve in flight", func(h client.Health) bool { return h.InFlight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	// The search must stop promptly — nowhere near the 30s limit.
	waitHealth(t, c, "worker freed after disconnect", func(h client.Health) bool { return h.InFlight == 0 })
}

// A batch deadline splits the batch into solved, stopped-best-so-far and
// never-started items.
func TestBatchDeadlinePartialResults(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	problems := []*rentmin.Problem{
		fastProblem(70),
		slowServerProblem(t),
		slowServerProblem(t),
		slowServerProblem(t),
	}
	sols, err := c.SolveBatch(context.Background(), problems, &client.Options{TimeLimit: 600 * time.Millisecond})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(sols) != len(problems) {
		t.Fatalf("got %d solutions for %d problems", len(sols), len(problems))
	}
	if sols[0].Error != "" || sols[0].Allocation.Cost != 124 {
		t.Errorf("fast item not solved: %+v", sols[0])
	}
	neverStarted := 0
	for i, sol := range sols[1:] {
		if sol.Error != "" {
			neverStarted++
			continue
		}
		if sol.Proven {
			t.Errorf("slow item %d claims a proven optimum inside the deadline", i+1)
		}
	}
	if neverStarted == 0 {
		t.Errorf("expected the 600ms batch deadline to leave some sequential-tail items unstarted")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 3})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("health = %+v, want ok with 2 workers", h)
	}

	if _, err := c.Solve(ctx, fastProblem(70), nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`rentmind_requests_total{endpoint="/v1/solve",code="200"} 1`,
		"rentmind_solves_total 1",
		"rentmind_lp_iterations_total ",
		"rentmind_lp_solves_total ",
		`rentmind_solve_latency_ms{quantile="0.5"} `,
		`rentmind_solve_latency_ms{quantile="0.99"} `,
		"rentmind_queue_depth 0",
		"rentmind_queue_capacity 3",
		"rentmind_workers 2",
		"rentmind_draining 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// errFrom adapts (value, error) returns for apiStatus.
func errFrom(_ *client.Solution, err error) error { return err }

// serverURL recovers the base URL from the typed client for the raw
// HTTP checks.
func serverURL(c *client.Client) string { return c.BaseURL() }
