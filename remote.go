package rentmin

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rentmin/internal/obs"
	"rentmin/internal/pool"
)

// RemoteWorker is one rentmind worker daemon as seen by a remote-backed
// SolverPool: a unit of solve capacity reached over some transport.
// rentmin/client.Worker implements it over the daemon's HTTP API; tests
// implement it in-process.
type RemoteWorker interface {
	// Name identifies the worker in errors and metrics (its endpoint URL
	// for an HTTP worker).
	Name() string
	// Capacity reports how many solves the worker can run concurrently —
	// the pool never keeps more than this many in flight on it. An HTTP
	// worker discovers it from GET /v1/capacity.
	Capacity(ctx context.Context) (int, error)
	// Solve runs one problem on the worker. An error wrapping a
	// *WorkerFaultError marks the worker unhealthy: the pool re-dispatches
	// the problem to another worker and backs this one off. Any other
	// error is the problem's own failure and is returned to the caller.
	Solve(ctx context.Context, p *Problem, opts *SolveOptions) (Solution, error)
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

// RemoteConfig tunes a remote-backed SolverPool's failure handling.
type RemoteConfig struct {
	// Backoff returns how long a worker sits out after its strike-th
	// consecutive fault (strike counts from 1). Nil uses a deterministic
	// exponential default (100ms · 2^(strike-1), capped at 5s);
	// rentmin/client.Backoff supplies a jittered schedule from a seeded
	// RNG.
	Backoff func(strike int) time.Duration
	// EvictStrikes, when positive, evicts a worker from the fleet once
	// its consecutive strikes (dispatch faults plus health-probe
	// failures) reach the threshold. Zero keeps the fixed-fleet
	// behaviour: faulting workers only back off. An evicted worker
	// rejoins with clean health via AddRemoteWorker — a coordinator pairs
	// eviction with worker re-registration.
	EvictStrikes int
}

// WorkerStatus is a point-in-time snapshot of one remote worker's health
// inside a remote-backed SolverPool, exported by the coordinator's
// /metrics worker gauges.
type WorkerStatus struct {
	// Name identifies the worker; Capacity is its discovered in-flight cap.
	Name     string
	Capacity int
	// InFlight counts solves currently dispatched to the worker;
	// Dispatched, Succeeded and Faults are cumulative dispatch outcomes
	// (a re-dispatched problem counts once per attempt).
	InFlight   int
	Dispatched int64
	Succeeded  int64
	Faults     int64
	// Healthy is false while the worker is backing off after faults.
	Healthy bool
	// Removed is true once the worker has left the fleet (manual removal
	// or strike eviction); its counters are retained so dashboards keep
	// the history and a rejoin resumes them.
	Removed bool
	// RTTSamples is the number of dispatch round trips measured; RTTp50Ms
	// and RTTp99Ms are quantiles over a sliding window of the most recent
	// ones (coordinator-observed: queue+solve time on the worker plus the
	// wire). Zero samples means no dispatch has completed yet.
	RTTSamples int64
	RTTp50Ms   float64
	RTTp99Ms   float64
}

// NewRemoteSolverPool builds a SolverPool whose capacity is a fleet of
// rentmind workers instead of in-process goroutines: every solve pushed
// through the pool is dispatched to a worker, and batch items spread
// across the whole fleet. Capacities are discovered up front via
// RemoteWorker.Capacity under ctx; a worker whose discovery fails makes
// construction fail (start the fleet before the coordinator).
//
// The returned pool has the exact SolverPool API: SolveBatch returns
// solutions by input index no matter which worker answered which item,
// cancellation aborts queued and in-flight remote solves, and worker
// faults re-dispatch (see WorkerFaultError). rentmin/client.NewFleet
// wires this up over HTTP.
func NewRemoteSolverPool(ctx context.Context, workers []RemoteWorker, cfg *RemoteConfig) (*SolverPool, error) {
	if len(workers) == 0 {
		return nil, errors.New("rentmin: remote solver pool needs at least one worker")
	}
	specs := make([]pool.RemoteSpec, len(workers))
	for i, w := range workers {
		c, err := w.Capacity(ctx)
		if err != nil {
			return nil, fmt.Errorf("rentmin: discover capacity of worker %s: %w", w.Name(), err)
		}
		if c < 1 {
			c = 1
		}
		specs[i] = pool.RemoteSpec{Name: w.Name(), Capacity: c}
	}
	rp, err := pool.NewRemote(specs, poolConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("rentmin: %w", err)
	}
	return &SolverPool{pool: rp, remote: workers, isRemote: true}, nil
}

func poolConfig(cfg *RemoteConfig) pool.RemoteConfig {
	var pcfg pool.RemoteConfig
	if cfg != nil {
		pcfg.Backoff = cfg.Backoff
		pcfg.EvictStrikes = cfg.EvictStrikes
	}
	return pcfg
}

// NewElasticSolverPool builds a remote-backed SolverPool with no initial
// members: grow the fleet with AddRemoteWorker as workers register (the
// coordinator's POST /v1/workers path) and shrink it with
// RemoveRemoteWorker or the EvictStrikes threshold. Solves pushed
// through an empty fleet park until a member joins or their context is
// cancelled. Everything else — batch ordering, fault re-dispatch,
// cancellation — matches NewRemoteSolverPool.
func NewElasticSolverPool(cfg *RemoteConfig) *SolverPool {
	rp, _ := pool.NewRemote(nil, poolConfig(cfg))
	return &SolverPool{pool: rp, isRemote: true}
}

// AddRemoteWorker adds a worker to a remote-backed pool's fleet (or
// revives/refreshes one with the same name), mid-batch if need be:
// schedulers starved of capacity immediately dispatch queued items onto
// it. The worker's capacity is discovered under ctx; a discovery failure
// leaves the fleet unchanged. It returns the worker's stable fleet
// index.
//
// Re-adding a name that already has a transport installed keeps the
// existing transport: registration is a periodic, idempotent announce,
// and the installed transport carries per-worker state worth preserving
// (the content-cache upload dedup — replacing it on every re-announce
// would re-upload every problem document). The new transport object is
// simply dropped; capacity is still refreshed.
func (p *SolverPool) AddRemoteWorker(ctx context.Context, w RemoteWorker) (int, error) {
	rp, ok := p.pool.(*pool.RemotePool)
	if !ok {
		return 0, errors.New("rentmin: AddRemoteWorker on a non-remote pool")
	}
	c, err := w.Capacity(ctx)
	if err != nil {
		return 0, fmt.Errorf("rentmin: discover capacity of worker %s: %w", w.Name(), err)
	}
	if c < 1 {
		c = 1
	}
	// Install the transport before the seats open: AddWorker wakes
	// parked schedulers, and a dispatch racing in must find p.remote[idx]
	// populated — dispatch's read lock orders it after this critical
	// section.
	p.remoteMu.Lock()
	defer p.remoteMu.Unlock()
	idx := rp.AddWorker(pool.RemoteSpec{Name: w.Name(), Capacity: c})
	for len(p.remote) <= idx {
		p.remote = append(p.remote, nil)
	}
	if p.remote[idx] == nil || p.remote[idx].Name() != w.Name() {
		p.remote[idx] = w
	}
	return idx, nil
}

// RemoveRemoteWorker takes the named worker out of the fleet; in-flight
// solves on it finish (or fault and re-dispatch), queued items flow to
// the remaining members. It reports whether a live member was removed.
func (p *SolverPool) RemoveRemoteWorker(name string) bool {
	rp, ok := p.pool.(*pool.RemotePool)
	if !ok {
		return false
	}
	return rp.RemoveWorker(name)
}

// ProbeWorkers health-checks every active fleet member by asking it for
// its capacity under ctx. A failed probe takes a strike against the
// worker — backoff, and eviction at the configured EvictStrikes
// threshold — without polluting its dispatch fault counters; a
// successful probe refreshes the worker's capacity if it changed. It
// returns the names evicted by this round, and nil for a non-remote
// pool. Probes run concurrently so every member gets ctx's full budget —
// a sequential round would let one slow member starve the probes behind
// it into spurious strikes.
func (p *SolverPool) ProbeWorkers(ctx context.Context) (evicted []string) {
	rp, ok := p.pool.(*pool.RemotePool)
	if !ok {
		return nil
	}
	specs := rp.Specs()
	results := make([]struct {
		cap int
		err error
	}, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		w := p.remoteWorkerByName(s.Name)
		if w == nil {
			continue
		}
		wg.Add(1)
		go func(i int, w RemoteWorker) {
			defer wg.Done()
			results[i].cap, results[i].err = w.Capacity(ctx)
		}(i, w)
	}
	wg.Wait()
	for i, s := range specs {
		if p.remoteWorkerByName(s.Name) == nil {
			continue
		}
		if results[i].err != nil {
			if rp.Strike(s.Name) {
				evicted = append(evicted, s.Name)
			}
			continue
		}
		c := results[i].cap
		if c < 1 {
			c = 1
		}
		if c != s.Capacity {
			rp.AddWorker(pool.RemoteSpec{Name: s.Name, Capacity: c})
		}
	}
	return evicted
}

// WorkerEvictions counts fleet members removed by the strike threshold
// since the pool was created; zero for a non-remote pool.
func (p *SolverPool) WorkerEvictions() int64 {
	if rp, ok := p.pool.(*pool.RemotePool); ok {
		return rp.Evictions()
	}
	return 0
}

// remoteWorkerByName finds the transport for a named fleet member.
func (p *SolverPool) remoteWorkerByName(name string) RemoteWorker {
	p.remoteMu.RLock()
	defer p.remoteMu.RUnlock()
	for _, w := range p.remote {
		if w != nil && w.Name() == name {
			return w
		}
	}
	return nil
}

// Remote reports whether the pool dispatches to remote workers.
func (p *SolverPool) Remote() bool { return p.isRemote }

// WorkerStats snapshots per-worker health of a remote-backed pool; it
// returns nil for a local pool.
func (p *SolverPool) WorkerStats() []WorkerStatus {
	rp, ok := p.pool.(*pool.RemotePool)
	if !ok {
		return nil
	}
	stats := rp.Stats()
	out := make([]WorkerStatus, len(stats))
	for i, s := range stats {
		out[i] = WorkerStatus{
			Name:       s.Name,
			Capacity:   s.Capacity,
			InFlight:   s.InFlight,
			Dispatched: s.Dispatched,
			Succeeded:  s.Succeeded,
			Faults:     s.Faults,
			Healthy:    !s.BackingOff && !s.Removed,
			Removed:    s.Removed,
		}
		if w := p.rttWindow(s.Name); w != nil {
			qs := w.Quantiles(0.5, 0.99)
			out[i].RTTSamples = w.Count()
			out[i].RTTp50Ms = qs[0]
			out[i].RTTp99Ms = qs[1]
		}
	}
	return out
}

// dispatch runs one solve on whatever backs the pool: in-process for a
// local pool, the assigned remote worker for a remote pool. It must be
// called from inside a pool task (the remote pool annotates the task
// context with the worker assignment).
func (p *SolverPool) dispatch(ctx context.Context, prob *Problem, opts *SolveOptions) (Solution, error) {
	if !p.isRemote {
		return SolveContext(ctx, prob, opts)
	}
	w, ok := pool.AssignedWorker(ctx)
	var rw RemoteWorker
	if ok && w >= 0 {
		p.remoteMu.RLock()
		if w < len(p.remote) {
			rw = p.remote[w]
		}
		p.remoteMu.RUnlock()
	}
	if rw == nil {
		return Solution{}, errors.New("rentmin: remote dispatch outside a pool task")
	}
	start := time.Now()
	sol, err := rw.Solve(ctx, prob, opts)
	if err != nil {
		return sol, err
	}
	// Attribution + RTT are coordinator-side observations: the worker
	// does not know the name the coordinator dispatches it under, and a
	// faulted attempt says nothing about the worker's solve latency.
	sol.Worker = rw.Name()
	p.recordRTT(rw.Name(), time.Since(start))
	return sol, nil
}

// recordRTT folds one successful dispatch round trip into the worker's
// sliding RTT window (creating it on first use).
func (p *SolverPool) recordRTT(worker string, d time.Duration) {
	p.rttMu.Lock()
	defer p.rttMu.Unlock()
	if p.rtt == nil {
		p.rtt = make(map[string]*obs.Window)
	}
	w := p.rtt[worker]
	if w == nil {
		w = obs.NewWindow(256)
		p.rtt[worker] = w
	}
	w.Add(float64(d) / float64(time.Millisecond))
}

// rttWindow returns the named worker's RTT window, or nil if no dispatch
// to it has succeeded yet.
func (p *SolverPool) rttWindow(worker string) *obs.Window {
	p.rttMu.Lock()
	defer p.rttMu.Unlock()
	return p.rtt[worker]
}
