package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rentmin"
)

// knownHashLimit bounds each Worker's memory of which problem hashes its
// daemon holds. The set is only an optimization — a stale entry costs
// one 412 round trip, a dropped one costs one redundant upload — so on
// overflow the whole set is simply discarded.
const knownHashLimit = 4096

// Worker adapts a Client into a rentmin.RemoteWorker, so a rentmind
// daemon can serve as one unit of capacity inside a remote-backed
// rentmin.SolverPool. It retries a queue overflow (429) against its own
// daemon first — honoring the Retry-After hint via Retry — and once
// those retries are exhausted, or at once when the daemon is draining
// (503) or the connection itself fails, it reports a
// rentmin.WorkerFaultError so the dispatcher re-routes the problem to a
// healthier worker.
//
// Dispatches are content-addressed: each solve uploads the canonical
// problem document to the daemon's cache once (PUT /v1/problems/{hash})
// and thereafter sends only the hash plus the target, so sweeping one
// instance across many targets ships the document a single time. A 412
// from a daemon that evicted (or restarted away) the hash triggers
// re-upload and an immediate retry.
type Worker struct {
	c     *Client
	retry *Backoff

	mu    sync.Mutex
	known map[string]struct{}
	// uploading deduplicates concurrent uploads of one hash: a batch
	// fanning the same instance across this worker's seats must ship the
	// document once, not once per seat.
	uploading map[string]chan struct{}
}

// workerAttempts is how many tries each solve gets against its worker
// before a transient failure escalates to a worker fault.
const workerAttempts = 3

// NewWorker wraps a Client as fleet capacity. retry may be nil (default
// schedule, seed 0).
func NewWorker(c *Client, retry *Backoff) *Worker {
	if retry == nil {
		retry = NewBackoff(0)
	}
	return &Worker{
		c: c, retry: retry,
		known:     make(map[string]struct{}),
		uploading: make(map[string]chan struct{}),
	}
}

func (w *Worker) markKnownLocked(hash string) {
	if len(w.known) >= knownHashLimit {
		w.known = make(map[string]struct{})
	}
	w.known[hash] = struct{}{}
}

// ensureUploaded guarantees the daemon holds p's canonical document
// under hash, encoding the document only when it has to upload it.
// Concurrent callers for the same hash are single-flighted: one uploads,
// the rest wait and recheck — so a sweep dispatching one instance across
// every seat of this worker still uploads exactly once.
func (w *Worker) ensureUploaded(ctx context.Context, hash string, p *rentmin.Problem) error {
	for {
		w.mu.Lock()
		if _, ok := w.known[hash]; ok {
			w.mu.Unlock()
			return nil
		}
		if ch, ok := w.uploading[hash]; ok {
			w.mu.Unlock()
			select {
			case <-ch:
				continue // the uploader finished (or failed); recheck
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ch := make(chan struct{})
		w.uploading[hash] = ch
		w.mu.Unlock()

		err := w.c.UploadProblem(ctx, hash, canonicalDocument(p))
		w.mu.Lock()
		delete(w.uploading, hash)
		if err == nil {
			w.markKnownLocked(hash)
		}
		w.mu.Unlock()
		close(ch)
		return err
	}
}

func (w *Worker) forget(hash string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.known, hash)
}

// Name implements rentmin.RemoteWorker with the daemon's base URL.
func (w *Worker) Name() string { return w.c.BaseURL() }

// Capacity implements rentmin.RemoteWorker via GET /v1/capacity: the
// daemon's number of worker leases is the in-flight cap the dispatcher
// applies to this worker.
func (w *Worker) Capacity(ctx context.Context) (int, error) {
	info, err := w.c.Capacity(ctx)
	if err != nil {
		return 0, err
	}
	return info.Workers, nil
}

// Solve implements rentmin.RemoteWorker over the daemon's solve API,
// content-addressed: upload-once via PUT /v1/problems/{hash}, then
// POST /v1/solve with a problem_ref. Each attempt sends ctx's remaining
// budget as the request's time limit (see forwardedLimit); a budget
// already spent fails with context.DeadlineExceeded before any request.
func (w *Worker) Solve(ctx context.Context, p *rentmin.Problem) (rentmin.Solution, error) {
	hash := problemHash(p)
	var sol *Solution
	err := Retry(ctx, w.retry, workerAttempts, func() error {
		limit, err := forwardedLimit(ctx)
		if err != nil {
			return err
		}
		sol, err = w.solveRef(ctx, hash, p, &Options{TimeLimit: limit})
		return err
	})
	if err != nil {
		return rentmin.Solution{}, w.classify(ctx, err)
	}
	return sol.ToSolution()
}

// forwardedLimit turns ctx's deadline into the time limit a worker
// daemon is sent, since a context deadline does not cross the wire. The
// worker gets the remaining budget less a grace of a tenth, at most
// 500 ms, so it stops itself and ships its best incumbent back before
// ctx cuts the connection. Without a deadline the limit is zero and the
// daemon applies its own default.
func forwardedLimit(ctx context.Context) (time.Duration, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return 0, context.DeadlineExceeded
	}
	return remaining - min(remaining/10, 500*time.Millisecond), nil
}

// solveRef is one cache-addressed solve attempt of p at its target:
// ensure the daemon holds the document, then solve by reference. A 412
// — the daemon evicted the hash between our upload and the solve (LRU
// pressure or a restart) — re-uploads and retries the solve once within
// the same attempt, so eviction costs a round trip, not a worker fault.
func (w *Worker) solveRef(ctx context.Context, hash string, p *rentmin.Problem, copts *Options) (*Solution, error) {
	if err := w.ensureUploaded(ctx, hash, p); err != nil {
		return nil, err
	}
	sol, err := w.c.SolveRef(ctx, hash, p.Target, copts)
	if isStatus(err, http.StatusPreconditionFailed) {
		w.forget(hash)
		if uerr := w.ensureUploaded(ctx, hash, p); uerr != nil {
			return nil, uerr
		}
		sol, err = w.c.SolveRef(ctx, hash, p.Target, copts)
	}
	return sol, err
}

// isStatus reports whether err is an *APIError with the given HTTP
// status.
func isStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == status
}

// classify decides whether a solve failure indicts the worker (wrapped
// in rentmin.WorkerFaultError, triggering re-dispatch plus backoff) or
// belongs to the request itself (passed through).
func (w *Worker) classify(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		// The caller cancelled; whatever the transport reported says
		// nothing about the worker's health.
		return err
	}
	var ae *APIError
	if errors.As(err, &ae) {
		// A temporary rejection (a queue overflow that outlived its
		// retries, or a draining daemon) means this worker cannot take
		// the problem — another one can. Permanent rejections (400
		// malformed, 422 admission, 504 deadline before feasibility)
		// follow the problem to any worker, so they are the caller's
		// error.
		if ae.Temporary() {
			return &rentmin.WorkerFaultError{Worker: w.Name(), Err: err}
		}
		return err
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// Transport-level failure: connection refused, reset, DNS — the
		// worker is unreachable.
		return &rentmin.WorkerFaultError{Worker: w.Name(), Err: err}
	}
	return err
}

// ToSolution converts a wire Solution into the rentmin.Solution the
// solver APIs return. A batch item that carries a per-item Error comes
// back as that error.
func (s *Solution) ToSolution() (rentmin.Solution, error) {
	if s.Error != "" {
		return rentmin.Solution{}, fmt.Errorf("rentmind: %s", s.Error)
	}
	return rentmin.Solution{
		Alloc:       s.Allocation,
		Proven:      s.Proven,
		Bound:       s.Bound,
		SearchStats: s.SearchStats,
		Elapsed:     time.Duration(s.ElapsedMs * float64(time.Millisecond)),
	}, nil
}

// FleetConfig tunes NewFleet and NewElasticFleet.
type FleetConfig struct {
	// HTTPClient is used for every worker (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Seed drives the jittered retry/backoff schedule shared by the
	// fleet, keeping multi-process tests reproducible.
	Seed uint64
	// EvictStrikes, when positive, evicts a fleet member once its
	// consecutive strikes (dispatch faults plus failed health probes)
	// reach the threshold; it rejoins with clean health by re-registering.
	// Zero never evicts.
	EvictStrikes int
}

// WorkerDialer turns a worker base URL into the transport the
// coordinator dispatches over. NewElasticFleet returns one sharing the
// fleet's backoff schedule and HTTP client; internal/server calls it
// when a worker registers via POST /v1/workers.
type WorkerDialer func(endpoint string) rentmin.RemoteWorker

// NewElasticFleet builds a remote-backed rentmin.SolverPool whose
// membership changes at runtime, plus the WorkerDialer that admits new
// members: the coordinator side of an autoscaled worker deployment.
//
// Every seed endpoint is dialed under ctx and added to the fleet; a seed
// that answers 503 on /v1/capacity is skipped (it is draining — it
// would die under the coordinator moments later), while any other
// discovery failure fails construction so boot-time retry loops keep
// their "wait until the fleet is up" semantics. seeds may be empty: the
// fleet then starts empty and fills as workers register.
func NewElasticFleet(ctx context.Context, seeds []string, cfg *FleetConfig) (*rentmin.SolverPool, WorkerDialer, error) {
	var fc FleetConfig
	if cfg != nil {
		fc = *cfg
	}
	retry := NewBackoff(fc.Seed)
	dial := func(endpoint string) rentmin.RemoteWorker {
		return NewWorker(NewWithHTTPClient(endpoint, fc.HTTPClient), retry)
	}
	pool := rentmin.NewElasticSolverPool(&rentmin.RemoteConfig{
		Backoff:      retry.Delay,
		EvictStrikes: fc.EvictStrikes,
	})
	for _, ep := range seeds {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		if _, err := pool.AddRemoteWorker(ctx, dial(ep)); err != nil {
			if isStatus(err, http.StatusServiceUnavailable) {
				continue // draining: enrolling it would hand work to a dying daemon
			}
			return nil, nil, err
		}
	}
	return pool, WorkerDialer(dial), nil
}

// NewFleet builds a remote-backed rentmin.SolverPool over rentmind
// daemons at the given base URLs: the coordinator side of the
// distributed solver pool. It discovers each worker's in-flight cap from
// GET /v1/capacity under ctx (start the workers first; a draining
// worker is skipped rather than enrolled), and returns a pool with the
// standard SolverPool semantics — batch results ordered by input index,
// cancellation aborting queued and in-flight remote solves, and faulted
// workers backed off with their items re-dispatched. The fleet remains
// elastic underneath: rentmin.SolverPool.AddRemoteWorker admits later
// members.
func NewFleet(ctx context.Context, endpoints []string, cfg *FleetConfig) (*rentmin.SolverPool, error) {
	pool, _, err := NewElasticFleet(ctx, endpoints, cfg)
	if err != nil {
		return nil, err
	}
	if len(pool.WorkerStats()) == 0 {
		return nil, errors.New("rentmind: fleet needs at least one worker endpoint")
	}
	return pool, nil
}
