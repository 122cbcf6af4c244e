package rentmin

import (
	"context"
	"fmt"
	"sync"

	"rentmin/internal/pool"
)

// RemoteWorker is one member of a SolverPool's fleet: a unit of solve
// capacity reached over some transport. rentmin/client.Worker
// implements it over a rentmind daemon's HTTP API; an in-process pool's
// one member solves in process (NewSolverPool), and tests implement it
// with stubs.
type RemoteWorker interface {
	// Name identifies the worker in errors and metrics (its endpoint URL
	// for an HTTP worker).
	Name() string
	// Capacity reports how many solves the worker can run concurrently —
	// the pool never keeps more than this many in flight on it. An HTTP
	// worker discovers it from GET /v1/capacity.
	Capacity(ctx context.Context) (int, error)
	// Solve runs one problem on the worker. ctx's deadline is the
	// solve's budget: a worker reached over a wire must send it along,
	// since a context does not cross one. An error wrapping a
	// *WorkerFaultError marks the worker unhealthy: the pool re-dispatches
	// the problem to another worker and backs this one off. Any other
	// error is the problem's own failure and is returned to the caller.
	Solve(ctx context.Context, p *Problem) (Solution, error)
}

// WorkerFaultError marks a remote solve failure as indicting the worker
// rather than the problem: connection refused, a queue-overflow 429 that
// outlived its retries, a draining 503. The dispatcher reacts by
// re-dispatching the problem to a healthy worker and backing the faulted
// worker off, so one dead worker degrades throughput, not correctness.
type WorkerFaultError struct {
	// Worker names the faulted worker (RemoteWorker.Name).
	Worker string
	// Err is the underlying failure.
	Err error
}

// Error implements the error interface.
func (e *WorkerFaultError) Error() string {
	return fmt.Sprintf("rentmin: worker %s faulted: %v", e.Worker, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *WorkerFaultError) Unwrap() error { return e.Err }

// WorkerFault marks the error chain for the dispatcher (see
// internal/pool.IsWorkerFault).
func (e *WorkerFaultError) WorkerFault() bool { return true }

// RemoteConfig tunes an elastic SolverPool's failure handling:
// the per-strike Backoff schedule and the EvictStrikes threshold (an
// evicted worker rejoins with clean health via AddRemoteWorker — a
// coordinator pairs eviction with worker re-registration).
type RemoteConfig = pool.RemoteConfig

// WorkerStatus is a point-in-time snapshot of one fleet member's health
// inside a SolverPool (dispatch counters, backoff state,
// dispatch round-trip quantiles), exported by the coordinator's /metrics
// worker gauges and GET /v1/workers.
type WorkerStatus = pool.WorkerStatus

// NewElasticSolverPool builds a SolverPool whose capacity is a fleet of
// rentmind workers instead of an in-process member: every solve pushed
// through the pool is dispatched to a worker, and batch items spread
// across the whole fleet. The fleet starts empty: grow it with
// AddRemoteWorker as workers register (the coordinator's POST
// /v1/workers path) and shrink it with RemoveRemoteWorker or the
// EvictStrikes threshold. Solves pushed through an empty fleet park
// until a member joins or their context is cancelled.
//
// The returned pool has the exact SolverPool API: SolveBatch returns
// solutions by input index no matter which worker answered which item,
// cancellation aborts queued and in-flight remote solves, and worker
// faults re-dispatch (see WorkerFaultError). rentmin/client.NewFleet
// wires this up over HTTP.
func NewElasticSolverPool(cfg *RemoteConfig) *SolverPool {
	var c RemoteConfig
	if cfg != nil {
		c = *cfg
	}
	return &SolverPool{pool: pool.New[RemoteWorker](nil, c)}
}

// AddRemoteWorker adds a worker to the pool's fleet (or
// revives/refreshes one with the same name), mid-batch if need be:
// schedulers starved of capacity immediately dispatch queued items onto
// it. The worker's capacity is discovered under ctx; a discovery failure
// leaves the fleet unchanged. It returns the worker's stable fleet
// index.
//
// Re-adding a name that is already a member keeps the installed
// transport (see pool.Pool.AddWorker): registration is a
// periodic, idempotent announce, and the installed transport carries
// the content-cache upload dedup. The new transport object is simply
// dropped; capacity is still refreshed.
func (p *SolverPool) AddRemoteWorker(ctx context.Context, w RemoteWorker) (int, error) {
	c, err := w.Capacity(ctx)
	if err != nil {
		return 0, fmt.Errorf("rentmin: discover capacity of worker %s: %w", w.Name(), err)
	}
	return p.pool.AddWorker(pool.RemoteSpec[RemoteWorker]{Name: w.Name(), Capacity: c, Worker: w}), nil
}

// RemoveRemoteWorker takes the named worker out of the fleet; in-flight
// solves on it finish (or fault and re-dispatch), queued items flow to
// the remaining members. It reports whether a live member was removed.
func (p *SolverPool) RemoveRemoteWorker(name string) bool {
	return p.pool.RemoveWorker(name)
}

// ProbeWorkers health-checks every active fleet member by asking it for
// its capacity under ctx. A failed probe takes a strike against the
// worker — backoff, and eviction at the configured EvictStrikes
// threshold — without polluting its dispatch fault counters; a
// successful probe refreshes the worker's capacity if it changed. A
// worker removed while its probe was in flight stays removed. It
// returns the names evicted by this round. Probes run concurrently so
// every member gets ctx's full budget — a sequential round would let one
// slow member starve the probes behind it into spurious strikes.
func (p *SolverPool) ProbeWorkers(ctx context.Context) (evicted []string) {
	specs := p.pool.Specs()
	caps := make([]int, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caps[i], errs[i] = s.Worker.Capacity(ctx)
		}()
	}
	wg.Wait()
	for i, s := range specs {
		if p.pool.Probed(s.Name, caps[i], errs[i]) {
			evicted = append(evicted, s.Name)
		}
	}
	return evicted
}

// WorkerEvictions counts fleet members removed by the strike threshold
// since the pool was created.
func (p *SolverPool) WorkerEvictions() int64 { return p.pool.Evictions() }

// WorkerStats snapshots per-member health; an in-process pool reports
// its one member, named "".
func (p *SolverPool) WorkerStats() []WorkerStatus { return p.pool.Stats() }

// dispatch runs one solve with default options on rw, the member a pool
// task was dispatched to: in process, or on a remote worker.
func dispatch(ctx context.Context, rw RemoteWorker, prob *Problem) (Solution, error) {
	sol, err := rw.Solve(ctx, prob)
	if err != nil {
		return sol, err
	}
	// Attribution is a coordinator-side observation: the worker does not
	// know the name the coordinator dispatches it under.
	sol.Worker = rw.Name()
	return sol, nil
}
