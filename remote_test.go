package rentmin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rentmin"
)

// stubWorker is an in-process rentmin.RemoteWorker: it solves for real
// (so costs can be cross-validated against the local backend) but can be
// flipped into a dead state where every dispatch faults.
type stubWorker struct {
	name   string
	cap    int
	dead   atomic.Bool
	solves atomic.Int64
	capErr error
}

func (w *stubWorker) Name() string { return w.name }

func (w *stubWorker) Capacity(ctx context.Context) (int, error) {
	if w.capErr != nil {
		return 0, w.capErr
	}
	return w.cap, nil
}

func (w *stubWorker) Solve(ctx context.Context, p *rentmin.Problem) (rentmin.Solution, error) {
	if w.dead.Load() {
		return rentmin.Solution{}, &rentmin.WorkerFaultError{Worker: w.name, Err: errors.New("connection refused")}
	}
	sol, err := rentmin.SolveContext(ctx, p, nil)
	if err != nil {
		return rentmin.Solution{}, err
	}
	w.solves.Add(1)
	return sol, nil
}

func remotePool(t *testing.T, workers ...rentmin.RemoteWorker) *rentmin.SolverPool {
	t.Helper()
	pool := rentmin.NewElasticSolverPool(&rentmin.RemoteConfig{
		Backoff: func(int) time.Duration { return time.Millisecond },
	})
	for _, w := range workers {
		if _, err := pool.AddRemoteWorker(context.Background(), w); err != nil {
			t.Fatalf("AddRemoteWorker: %v", err)
		}
	}
	return pool
}

// TestRemoteSolverPoolMatchesLocal is the distribution acceptance
// criterion at the API level: a batch through a remote-backed pool lands
// the exact per-item costs of a local solve, in input order, and the
// items genuinely spread across the fleet.
func TestRemoteSolverPoolMatchesLocal(t *testing.T) {
	problems := batchProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}

	w0 := &stubWorker{name: "w0", cap: 2}
	w1 := &stubWorker{name: "w1", cap: 2}
	pool := remotePool(t, w0, w1)
	if got, wantCap := pool.Workers(), 4; got != wantCap {
		t.Errorf("fleet capacity = %d, want %d (discovered per worker)", got, wantCap)
	}

	sols, err := pool.SolveBatch(problems, nil)
	if err != nil {
		t.Fatalf("remote batch: %v", err)
	}
	for i := range sols {
		if sols[i].Alloc.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: remote cost %d != local cost %d", i, sols[i].Alloc.Cost, want[i].Alloc.Cost)
		}
		if !sols[i].Proven {
			t.Errorf("problem %d: remote solve not proven", i)
		}
	}
	if w0.solves.Load() == 0 || w1.solves.Load() == 0 {
		t.Errorf("batch did not span the fleet: w0=%d w1=%d solves", w0.solves.Load(), w1.solves.Load())
	}
	if total := w0.solves.Load() + w1.solves.Load(); total != int64(len(problems)) {
		t.Errorf("fleet solved %d items for a %d-problem batch", total, len(problems))
	}
}

// TestRemoteSolverPoolSurvivesDeadWorker kills one worker and expects
// the full, correct result set via re-dispatch — the coordinator-side
// version of the CI distributed-smoke assertion.
func TestRemoteSolverPoolSurvivesDeadWorker(t *testing.T) {
	problems := batchProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}

	w0 := &stubWorker{name: "w0", cap: 2}
	w1 := &stubWorker{name: "w1", cap: 2}
	w1.dead.Store(true) // dead from the start: every item it gets must re-dispatch
	pool := remotePool(t, w0, w1)

	sols, err := pool.SolveBatch(problems, nil)
	if err != nil {
		t.Fatalf("batch with dead worker: %v", err)
	}
	for i := range sols {
		if sols[i].Alloc.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: cost %d != local cost %d", i, sols[i].Alloc.Cost, want[i].Alloc.Cost)
		}
	}
	if w0.solves.Load() != int64(len(problems)) {
		t.Errorf("healthy worker solved %d of %d items", w0.solves.Load(), len(problems))
	}

	stats := pool.WorkerStats()
	if len(stats) != 2 {
		t.Fatalf("WorkerStats returned %d entries, want 2", len(stats))
	}
	byName := map[string]rentmin.WorkerStatus{stats[0].Name: stats[0], stats[1].Name: stats[1]}
	if byName["w1"].Faults == 0 {
		t.Errorf("dead worker shows no faults: %+v", byName["w1"])
	}
	if byName["w0"].Succeeded != int64(len(problems)) {
		t.Errorf("healthy worker stats: %+v", byName["w0"])
	}
}

// TestRemoteSolverPoolSingleSolve routes SolveContext through the fleet.
func TestRemoteSolverPoolSingleSolve(t *testing.T) {
	w0 := &stubWorker{name: "w0", cap: 1}
	pool := remotePool(t, w0)
	p := rentmin.IllustratingExample()
	p.Target = 70
	sol, err := pool.SolveContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if sol.Alloc.Cost != 124 {
		t.Errorf("cost = %d, want 124", sol.Alloc.Cost)
	}
	if w0.solves.Load() != 1 {
		t.Errorf("worker solved %d problems, want 1", w0.solves.Load())
	}
}

// TestReregisterKeepsTransport: re-adding a worker under a name that
// already has a transport installed must keep the existing transport —
// registration is a periodic announce, and replacing the transport on
// every re-announce would reset per-transport state (the HTTP worker's
// content-cache upload dedup). Dispatches after the re-add must land on
// the original object.
func TestReregisterKeepsTransport(t *testing.T) {
	original := &stubWorker{name: "w0", cap: 2}
	pool := remotePool(t, original)

	replacement := &stubWorker{name: "w0", cap: 2}
	if _, err := pool.AddRemoteWorker(context.Background(), replacement); err != nil {
		t.Fatalf("re-register: %v", err)
	}

	p := rentmin.IllustratingExample()
	p.Target = 70
	if _, err := pool.SolveContext(context.Background(), p, nil); err != nil {
		t.Fatalf("SolveContext after re-register: %v", err)
	}
	if got := original.solves.Load(); got != 1 {
		t.Errorf("original transport solved %d problems, want 1", got)
	}
	if got := replacement.solves.Load(); got != 0 {
		t.Errorf("replacement transport solved %d problems, want 0 (must be dropped)", got)
	}

	// A genuinely new name still installs its own transport: with the
	// original worker dead, a solve can only succeed through the joiner.
	original.dead.Store(true)
	joiner := &stubWorker{name: "w1", cap: 1}
	if _, err := pool.AddRemoteWorker(context.Background(), joiner); err != nil {
		t.Fatalf("add joiner: %v", err)
	}
	if _, err := pool.SolveContext(context.Background(), p, nil); err != nil {
		t.Fatalf("SolveContext after join: %v", err)
	}
	if joiner.solves.Load() != 1 {
		t.Errorf("joiner solved %d problems, want 1 (re-dispatch from the dead original)", joiner.solves.Load())
	}
}

// parkedProbe is a stubWorker whose capacity probes, once armed, wait
// for release and then report capacity 5.
type parkedProbe struct {
	*stubWorker
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (w *parkedProbe) Capacity(ctx context.Context) (int, error) {
	if !w.armed.Load() {
		return w.stubWorker.Capacity(ctx)
	}
	w.entered <- struct{}{}
	<-w.release
	return 5, nil
}

// TestProbeNeverRevivesARemovedWorker: a worker removed while its health
// probe is in flight stays removed when the probe answers, at the
// capacity it left with.
func TestProbeNeverRevivesARemovedWorker(t *testing.T) {
	w := &parkedProbe{stubWorker: &stubWorker{name: "w0", cap: 2}, entered: make(chan struct{}), release: make(chan struct{})}
	pool := remotePool(t, w)
	w.armed.Store(true)
	done := make(chan []string, 1)
	go func() { done <- pool.ProbeWorkers(context.Background()) }()
	<-w.entered
	if !pool.RemoveRemoteWorker("w0") {
		t.Fatal("RemoveRemoteWorker found no live w0")
	}
	close(w.release)
	if evicted := <-done; len(evicted) != 0 {
		t.Errorf("probe round evicted %v, want none", evicted)
	}
	if s := pool.WorkerStats()[0]; !s.Removed || s.Healthy || s.Capacity != 2 {
		t.Errorf("after a probe that raced its removal: %+v, want removed at capacity 2", s)
	}
	if got := pool.Workers(); got != 0 {
		t.Errorf("Workers() = %d, want 0", got)
	}
}

// TestRemoteSolverPoolCapacityDiscoveryFailure: a fleet member that
// cannot report capacity fails to join, by name.
func TestRemoteSolverPoolCapacityDiscoveryFailure(t *testing.T) {
	w0 := &stubWorker{name: "w0", cap: 2}
	w1 := &stubWorker{name: "w-broken", cap: 2, capErr: fmt.Errorf("dial tcp: connection refused")}
	pool := rentmin.NewElasticSolverPool(nil)
	var err error
	for _, w := range []rentmin.RemoteWorker{w0, w1} {
		if _, err = pool.AddRemoteWorker(context.Background(), w); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("construction succeeded with unreachable worker")
	}
	if got := err.Error(); !strings.Contains(got, "w-broken") {
		t.Errorf("error %q does not name the unreachable worker", got)
	}
}

// TestWorkerFaultErrorChain pins the error chain the dispatcher relies on.
func TestWorkerFaultErrorChain(t *testing.T) {
	cause := errors.New("connection reset")
	err := fmt.Errorf("rentmin: batch problem 3: %w", &rentmin.WorkerFaultError{Worker: "w0", Err: cause})
	var wf *rentmin.WorkerFaultError
	if !errors.As(err, &wf) || wf.Worker != "w0" {
		t.Fatalf("WorkerFaultError lost in the chain: %v", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("cause lost in the chain: %v", err)
	}
	if !wf.WorkerFault() {
		t.Errorf("WorkerFault() = false")
	}
}
