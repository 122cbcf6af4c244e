package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

// recordingWorker is an in-process rentmin.RemoteWorker that records
// the time budget left on each dispatch's context: the deadline a real
// rentmind worker would receive as time_limit_ms (see client.Worker).
type recordingWorker struct {
	mu      sync.Mutex
	budgets []time.Duration // zero for a context without a deadline
	caps    int
}

func (w *recordingWorker) Name() string                              { return "recorder" }
func (w *recordingWorker) Capacity(ctx context.Context) (int, error) { return w.caps, nil }

func (w *recordingWorker) Solve(ctx context.Context, p *rentmin.Problem) (rentmin.Solution, error) {
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	w.mu.Lock()
	w.budgets = append(w.budgets, budget)
	w.mu.Unlock()
	return rentmin.SolveContext(ctx, p, nil)
}

func (w *recordingWorker) received() []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Duration(nil), w.budgets...)
}

func newCoordinatorServer(t *testing.T, worker *recordingWorker) *client.Client {
	t.Helper()
	pool := rentmin.NewElasticSolverPool(nil)
	if _, err := pool.AddRemoteWorker(context.Background(), worker); err != nil {
		t.Fatalf("AddRemoteWorker: %v", err)
	}
	// The server takes ownership of the pool; newTestServer's cleanup
	// closes it via Server.Close.
	_, c := newTestServer(t, Config{SolverPool: pool})
	return c
}

// TestCoordinatorForwardsDeadlineToWorkers: the request's time budget
// must reach the remote worker as its context deadline, from which the
// worker's transport derives the limit it sends (client.Worker).
// Without it a worker would apply its own default and diverge from
// local-mode semantics.
func TestCoordinatorForwardsDeadlineToWorkers(t *testing.T) {
	worker := &recordingWorker{caps: 2}
	c := newCoordinatorServer(t, worker)

	p := rentmin.IllustratingExample()
	p.Target = 70
	requested := 7 * time.Second
	if _, err := c.Solve(context.Background(), p, &client.Options{TimeLimit: requested}); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	got := worker.received()
	if len(got) != 1 {
		t.Fatalf("worker saw %d dispatches, want 1", len(got))
	}
	if got[0] <= 0 || got[0] > requested {
		t.Errorf("dispatched deadline leaves %v, want in (0, %v]", got[0], requested)
	}

	// Batch items share one deadline; each dispatch carries a positive
	// remaining budget.
	if _, err := c.SolveBatch(context.Background(), []*rentmin.Problem{p, p, p}, &client.Options{TimeLimit: requested}); err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	got = worker.received()
	if len(got) != 4 {
		t.Fatalf("worker saw %d dispatches, want 4", len(got))
	}
	for i, b := range got[1:] {
		if b <= 0 || b > requested {
			t.Errorf("batch item %d: dispatched deadline leaves %v, want in (0, %v]", i, b, requested)
		}
	}
}

// TestCoordinatorWorkerMetricsIncludeSuccesses: per-worker health rate
// (fault-free dispatches / dispatches) must be derivable from /metrics —
// dispatches and faults alone don't expose it, because cancellation-time
// failures count in neither series.
func TestCoordinatorWorkerMetricsIncludeSuccesses(t *testing.T) {
	worker := &recordingWorker{caps: 1}
	c := newCoordinatorServer(t, worker)

	p := rentmin.IllustratingExample()
	p.Target = 70
	if _, err := c.Solve(context.Background(), p, nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`rentmind_worker_dispatches_total{worker="recorder"} 1`,
		`rentmind_worker_successes_total{worker="recorder"} 1`,
		`rentmind_worker_faults_total{worker="recorder"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
