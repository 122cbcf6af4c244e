package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

// recordingWorker is an in-process rentmin.RemoteWorker that captures
// the options each dispatch carries — what a real rentmind worker
// daemon would receive on the wire.
type recordingWorker struct {
	mu   sync.Mutex
	got  []rentmin.SolveOptions
	caps int
}

func (w *recordingWorker) Name() string                              { return "recorder" }
func (w *recordingWorker) Capacity(ctx context.Context) (int, error) { return w.caps, nil }

func (w *recordingWorker) Solve(ctx context.Context, p *rentmin.Problem, opts *rentmin.SolveOptions) (rentmin.Solution, error) {
	w.mu.Lock()
	if opts != nil {
		w.got = append(w.got, *opts)
	} else {
		w.got = append(w.got, rentmin.SolveOptions{})
	}
	w.mu.Unlock()
	return rentmin.SolveContext(ctx, p, opts)
}

func (w *recordingWorker) options() []rentmin.SolveOptions {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]rentmin.SolveOptions(nil), w.got...)
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
// must reach the remote worker as an explicit limit — the context
// deadline alone does not serialize onto the wire, and without it a
// worker would apply its own default and diverge from local-mode
// semantics.
func TestCoordinatorForwardsDeadlineToWorkers(t *testing.T) {
	worker := &recordingWorker{caps: 2}
	c := newCoordinatorServer(t, worker)

	p := rentmin.IllustratingExample()
	p.Target = 70
	requested := 7 * time.Second
	if _, err := c.Solve(context.Background(), p, &client.Options{TimeLimit: requested}); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	got := worker.options()
	if len(got) != 1 {
		t.Fatalf("worker saw %d dispatches, want 1", len(got))
	}
	if got[0].TimeLimit <= 0 || got[0].TimeLimit > requested {
		t.Errorf("forwarded TimeLimit = %v, want in (0, %v]", got[0].TimeLimit, requested)
	}
	// The grace margin exists so the worker answers before the
	// coordinator's context cuts the connection.
	if got[0].TimeLimit > requested-400*time.Millisecond {
		t.Errorf("forwarded TimeLimit = %v leaves no grace before the %v deadline", got[0].TimeLimit, requested)
	}

	// Batch items share one deadline; each dispatch forwards a positive
	// remaining budget.
	if _, err := c.SolveBatch(context.Background(), []*rentmin.Problem{p, p, p}, &client.Options{TimeLimit: requested}); err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	got = worker.options()
	if len(got) != 4 {
		t.Fatalf("worker saw %d dispatches, want 4", len(got))
	}
	for i, o := range got[1:] {
		if o.TimeLimit <= 0 || o.TimeLimit > requested {
			t.Errorf("batch item %d: forwarded TimeLimit = %v, want in (0, %v]", i, o.TimeLimit, requested)
		}
	}
}

// TestLocalSolveOptionsLeaveDeadlineToContext: a daemon solving
// in-process must not fabricate a TimeLimit from the context deadline —
// the context alone governs the stop, so items still queued when a
// batch deadline fires surface per-item deadline errors instead of
// squeezing in as near-zero-budget pseudo-solves.
func TestLocalSolveOptionsLeaveDeadlineToContext(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	opts, err := s.solveOptions(ctx)
	if err != nil {
		t.Fatalf("solveOptions: %v", err)
	}
	if opts.TimeLimit != 0 {
		t.Errorf("local solveOptions fabricated TimeLimit = %v, want 0 (context governs)", opts.TimeLimit)
	}
}

// TestCoordinatorExpiredDeadlineFailsFast: a budget already spent when
// the options are built must fail the solve instead of dispatching it
// over the wire with a fabricated near-zero limit.
func TestCoordinatorExpiredDeadlineFailsFast(t *testing.T) {
	worker := &recordingWorker{caps: 1}
	pool := rentmin.NewElasticSolverPool(nil)
	if _, err := pool.AddRemoteWorker(context.Background(), worker); err != nil {
		t.Fatalf("AddRemoteWorker: %v", err)
	}
	s, _ := newTestServer(t, Config{SolverPool: pool})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.solveOptions(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("solveOptions on an expired deadline: err = %v, want context.DeadlineExceeded", err)
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
