package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/core"
	"rentmin/internal/obs"
)

// Config tunes a Server. The zero value is serviceable: every field has a
// default, applied by New.
type Config struct {
	// Workers is the solver pool size — how many solves run concurrently
	// (0 = GOMAXPROCS). The pool is saturated by concurrent requests,
	// which keeps per-request latency predictable under load.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// lease (0 = 64). Beyond Workers+QueueDepth outstanding requests the
	// server answers 429 with a Retry-After hint.
	QueueDepth int
	// MaxGraphs, MaxTypes, MaxTasks and MaxTarget are the admission
	// bounds (0 = 64, 256, 8192, 1_000_000): problems above them are
	// rejected with 422. MaxTasks counts tasks across all graphs.
	MaxGraphs, MaxTypes, MaxTasks, MaxTarget int
	// MaxBatch bounds the problems per /v1/batch request (0 = 64) and the
	// events per /v1/sessions/{id}/events request.
	MaxBatch int
	// MaxSessions bounds concurrently open re-optimization sessions
	// (POST /v1/sessions; 0 = 64). Creating beyond the bound answers 429:
	// retrying after a delete or an idle eviction can succeed.
	MaxSessions int
	// SessionIdleTimeout evicts sessions that have seen no traffic for
	// this long (0 = 15m). Eviction never interrupts a request that is
	// applying events — busy sessions are skipped until they go quiet.
	SessionIdleTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// DefaultTimeLimit is the per-request solve deadline when the client
	// sends none (0 = 10s); MaxTimeLimit clamps client-requested limits
	// (0 = 60s).
	DefaultTimeLimit, MaxTimeLimit time.Duration
	// RetryAfter is the hint attached to 429 responses (0 = 1s).
	RetryAfter time.Duration
	// SolverPool, when non-nil, is a pre-built pool the server takes
	// ownership of (Close closes it) instead of starting its own local
	// one — the hook that turns a daemon into a coordinator: pass a
	// remote-backed pool (rentmin/client.NewFleet over worker daemons)
	// and every solve and batch item is dispatched across the fleet,
	// with the workers' health exported on /metrics. Workers defaults to
	// the pool's capacity (or, with WorkerDialer set, a large lease
	// table sized for a fleet that grows after boot).
	SolverPool *rentmin.SolverPool
	// WorkerDialer, when non-nil, enables live fleet membership on a
	// coordinator: POST /v1/workers dials the announced endpoint through
	// it and adds the worker to SolverPool mid-flight.
	// rentmin/client.NewElasticFleet supplies a dialer sharing the
	// fleet's backoff schedule.
	WorkerDialer client.WorkerDialer
	// HealthInterval, when positive, starts a coordinator health loop
	// that probes every fleet member each interval; a failed probe takes
	// a strike (eviction at the fleet's EvictStrikes threshold). Zero
	// disables probing — dispatch faults alone then drive strikes.
	HealthInterval time.Duration
	// ProblemCacheSize bounds the daemon's content-addressed problem
	// cache (PUT /v1/problems/{hash}) in entries (0 = 256); least
	// recently used documents are evicted beyond it.
	ProblemCacheSize int
	// DebugSolves bounds the solve flight recorder served by
	// GET /debug/solves (0 = 64 entries): every solve and batch item —
	// failed ones included — leaves a summary record in the ring.
	DebugSolves int
	// Pprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/ (cmd/rentmind's -pprof flag). Off by default: the
	// profile endpoints are unauthenticated and can burn CPU.
	Pprof bool
	// Logger receives the daemon's structured log lines (dispatches,
	// evictions, registrations, each with trace_id/worker/item fields
	// where they apply). Nil uses slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.MaxTypes <= 0 {
		c.MaxTypes = 256
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 8192
	}
	if c.MaxTarget <= 0 {
		c.MaxTarget = 1_000_000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = 10 * time.Second
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ProblemCacheSize <= 0 {
		c.ProblemCacheSize = 256
	}
	if c.DebugSolves <= 0 {
		c.DebugSolves = 64
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// elasticLeases sizes the lease table of a coordinator whose fleet can
// grow after boot (Config.WorkerDialer set, Workers unset): the leases
// must not cap a fleet that registration enlarges, so they are sized
// generously and the dispatcher's per-worker seat tables do the real
// admission.
const elasticLeases = 256

// Server is the rentmind HTTP service. Create it with New, serve it as an
// http.Handler, and shut it down with BeginDrain + Close (see the package
// documentation for the full sequence).
type Server struct {
	cfg   Config
	pool  *rentmin.SolverPool
	mux   *http.ServeMux
	met   *metrics
	cache *problemCache
	rec   *obs.Recorder[client.DebugSolve] // solve flight recorder (GET /debug/solves)
	log   *slog.Logger

	// slots admits a request into the system (capacity Workers+QueueDepth,
	// try-acquire → 429); leases let it run on the pool (capacity Workers).
	// A request between the two is "queued"; drain wakes those waiters so
	// shutdown fails them fast instead of letting them start late solves.
	slots     chan struct{}
	leases    chan struct{}
	drain     chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once

	// healthDone is closed when the coordinator health loop exits; nil
	// when no loop runs.
	healthDone chan struct{}

	// sessions is the bounded online re-optimization session table
	// (/v1/sessions); sessDone is closed when its idle-eviction loop
	// exits.
	sessions *sessionTable
	sessDone chan struct{}

	queued   atomic.Int64
	inFlight atomic.Int64
}

// New builds a Server and starts its solver pool (or adopts the
// pre-built one from Config.SolverPool).
func New(cfg Config) *Server {
	if cfg.SolverPool != nil && cfg.Workers <= 0 {
		if cfg.WorkerDialer != nil {
			cfg.Workers = elasticLeases
		} else {
			cfg.Workers = cfg.SolverPool.Workers()
		}
	}
	cfg = cfg.withDefaults()
	p := cfg.SolverPool
	if p == nil {
		p = rentmin.NewSolverPool(cfg.Workers)
	}
	s := &Server{
		cfg:    cfg,
		pool:   p,
		mux:    http.NewServeMux(),
		met:    newMetrics(),
		cache:  newProblemCache(cfg.ProblemCacheSize),
		rec:    obs.NewRecorder[client.DebugSolve](cfg.DebugSolves),
		log:    cfg.Logger,
		slots:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		leases: make(chan struct{}, cfg.Workers),
		drain:  make(chan struct{}),
	}
	s.sessions = newSessionTable(cfg.MaxSessions)
	s.sessDone = make(chan struct{})
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("PUT /v1/problems/{hash}", s.handleProblemPut)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	s.mux.HandleFunc("DELETE /v1/workers", s.handleWorkerRemove)
	s.mux.HandleFunc("GET /v1/capacity", s.handleCapacity)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	if cfg.Pprof {
		// The stdlib registers these on DefaultServeMux in its init; the
		// daemon serves its own mux, so mount them explicitly. Index
		// dispatches /debug/pprof/{heap,goroutine,...} itself.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.HealthInterval > 0 && p.Remote() {
		s.healthDone = make(chan struct{})
		go s.healthLoop(cfg.HealthInterval)
	}
	go s.sessionEvictLoop()
	return s
}

// healthLoop is the coordinator's fleet probe: each tick it asks every
// member for its capacity, striking (and at the threshold, evicting)
// unresponsive ones and refreshing the capacity of live ones. It stops
// when the server drains.
func (s *Server) healthLoop(interval time.Duration) {
	defer close(s.healthDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.drain:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			for _, name := range s.pool.ProbeWorkers(ctx) {
				s.log.Warn("evicted unresponsive worker", "worker", name, "rejoin", "re-register")
			}
			cancel()
		}
	}
}

// Workers returns the solver pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// BeginDrain starts a graceful shutdown: /healthz flips to 503, new and
// queued requests fail fast with 503, in-flight solves keep running.
// Safe to call more than once.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Close releases the solver pool. Call it only after the HTTP server has
// stopped dispatching requests (http.Server.Shutdown / httptest.Server
// Close), so no handler still needs the pool. Close implies BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		if s.healthDone != nil {
			<-s.healthDone // probes must not race the pool teardown
		}
		<-s.sessDone // the eviction loop closes every remaining session
		s.pool.Close()
	})
}

func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// ServeHTTP implements http.Handler, wrapping the mux with the
// request-count and latency accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	endpoint := r.URL.Path
	switch {
	case strings.HasPrefix(endpoint, "/v1/problems/"):
		endpoint = "/v1/problems"
	case strings.HasPrefix(endpoint, "/v1/sessions"):
		endpoint = "/v1/sessions"
	case strings.HasPrefix(endpoint, "/debug/pprof"):
		endpoint = "/debug/pprof"
	default:
		switch endpoint {
		case "/v1/solve", "/v1/batch", "/v1/capacity", "/v1/workers", "/healthz", "/metrics", "/debug/solves":
		default:
			endpoint = "other"
		}
	}
	s.met.recordRequest(endpoint, sw.code)
	if sw.code == http.StatusOK && (endpoint == "/v1/solve" || endpoint == "/v1/batch") {
		s.met.recordLatency(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// --- request admission and queueing ------------------------------------------

// errDraining reports a lease wait interrupted by shutdown.
var errDraining = errors.New("server is shutting down")

// acquireSlot admits one request into the bounded system (non-blocking;
// a full system answers 429 + Retry-After). The slot is held for the
// request's whole lifetime; leases are acquired separately, per solve.
func (s *Server) acquireSlot(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	default:
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("work queue is full (%d in flight + %d queued)", s.cfg.Workers, s.cfg.QueueDepth))
		return nil, false
	}
}

// leaseWait blocks until a worker lease frees, the server drains, or ctx
// is done. Leases are the server's core capacity invariant: at most
// Workers solves are ever submitted to the pool concurrently, so a lease
// holder's pool submission never queues behind another request's fan-out
// — a solve that holds a lease is genuinely running.
func (s *Server) leaseWait(ctx context.Context) (release func(), err error) {
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.leases <- struct{}{}:
		// The select races a freed lease against drain: when both are
		// ready it may pick the lease, so re-check drain before letting
		// a brand-new solve start during shutdown.
		select {
		case <-s.drain:
			<-s.leases
			return nil, errDraining
		default:
		}
		s.inFlight.Add(1)
		return func() {
			<-s.leases
			s.inFlight.Add(-1)
		}, nil
	case <-s.drain:
		return nil, errDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// acquire is the single-solve path through the queue: slot, then lease.
// On failure it has already written the response.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		return nil, false
	}
	releaseLease, err := s.leaseWait(r.Context())
	if err != nil {
		releaseSlot()
		if errors.Is(err, errDraining) {
			s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		} else {
			// The client is gone (or its deadline passed) while queued;
			// the response is best-effort.
			s.writeError(w, http.StatusServiceUnavailable, "request cancelled while queued")
		}
		return nil, false
	}
	return func() {
		releaseLease()
		releaseSlot()
	}, true
}

// solveTimeLimit resolves a client-requested limit against the server
// default and maximum. A negative limit is a client bug — the Options
// API can produce one from a negative time.Duration — and is rejected
// rather than silently swapped for the default.
func (s *Server) solveTimeLimit(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("negative time_limit_ms %d", ms)
	}
	d := s.cfg.DefaultTimeLimit
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeLimit {
		d = s.cfg.MaxTimeLimit
	}
	return d, nil
}

// solveOptions builds the per-solve options. In-process the request
// context alone governs the deadline — the search stops between nodes when
// it fires, and items still queued surface context errors, so no
// explicit TimeLimit is fabricated. A remote dispatch serializes only an
// explicit limit onto the wire: without one a worker daemon would apply
// its own default instead of the request's budget. So in coordinator
// mode the context's remaining deadline becomes SolveOptions.TimeLimit,
// shaved by a small grace so the worker stops itself and ships its best
// incumbent back before the coordinator's context cuts the connection.
// An already-expired deadline fails fast instead of dispatching.
func (s *Server) solveOptions(ctx context.Context) (*rentmin.SolveOptions, error) {
	opts := &rentmin.SolveOptions{}
	if !s.pool.Remote() {
		return opts, nil
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, context.DeadlineExceeded
		}
		grace := remaining / 10
		if grace > 500*time.Millisecond {
			grace = 500 * time.Millisecond
		}
		opts.TimeLimit = remaining - grace
	}
	return opts, nil
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	reqStart := time.Now()
	tctx, traceID := s.traceContext(w, r)
	tr := obs.NewTrace(traceID)
	decodeSpan := tr.StartSpan("decode")
	var req client.SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	decodeSpan.End()
	limit, err := s.solveTimeLimit(req.TimeLimitMs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var p *rentmin.Problem
	var ok bool
	switch {
	case req.ProblemRef != nil && len(req.Problem) > 0:
		s.writeError(w, http.StatusBadRequest, "problem and problem_ref are mutually exclusive")
		return
	case req.ProblemRef != nil:
		p, ok = s.resolveRef(w, *req.ProblemRef, "")
	default:
		p, ok = s.parseProblem(w, req.Problem, "")
	}
	if !ok {
		return
	}
	if req.Target != nil {
		p.Target = *req.Target
		if err := p.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid target override: %v", err))
			return
		}
	}
	if err := s.admit(p); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	queueSpan := tr.StartSpan("queue")
	qStart := time.Now()
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	queueWait := time.Since(qStart)
	queueSpan.End()

	ctx, cancel := context.WithTimeout(tctx, limit)
	defer cancel()
	if req.Stats {
		// Only an opted-in request lets the search record its trajectory.
		ctx = obs.WithTrace(ctx, tr)
	}
	var sol rentmin.Solution
	solveSpan := tr.StartSpan("solve")
	solveStart := time.Now()
	opts, err := s.solveOptions(ctx)
	if err == nil {
		sol, err = s.pool.SolveContext(ctx, p, opts)
	}
	solveDur := time.Since(solveStart)
	solveSpan.End()
	s.recordSolve(solveRecord(traceID, "solve", -1, reqStart, queueWait, solveDur, sol, err, tr))
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// Client disconnect: the search already stopped;
			// nobody is reading, but finish the exchange cleanly.
			s.writeError(w, http.StatusServiceUnavailable, "client went away")
		case errors.Is(err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout,
				"time limit hit before any feasible allocation was found")
		default:
			s.writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.met.recordSolution(sol)
	ws := toWireSolution(sol)
	if req.Stats {
		ws.Stats = solveStats(traceID, queueWait, solveDur, sol, tr)
	}
	s.writeJSON(w, http.StatusOK, ws)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	reqStart := time.Now()
	tctx, traceID := s.traceContext(w, r)
	var req client.BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	limit, err := s.solveTimeLimit(req.TimeLimitMs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Problems) > 0 && len(req.ProblemRefs) > 0 {
		s.writeError(w, http.StatusBadRequest, "problems and problem_refs are mutually exclusive")
		return
	}
	n := len(req.Problems) + len(req.ProblemRefs)
	if n == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no problems")
		return
	}
	if n > s.cfg.MaxBatch {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("batch has %d problems, admission limit is %d", n, s.cfg.MaxBatch))
		return
	}
	problems := make([]*rentmin.Problem, n)
	for i := range problems {
		var p *rentmin.Problem
		var ok bool
		if len(req.Problems) > 0 {
			p, ok = s.parseProblem(w, req.Problems[i], fmt.Sprintf("problem %d: ", i))
		} else {
			p, ok = s.resolveRef(w, req.ProblemRefs[i], fmt.Sprintf("problem %d: ", i))
		}
		if !ok {
			return
		}
		if err := s.admit(p); err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("problem %d: %v", i, err))
			return
		}
		problems[i] = p
	}
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		return
	}
	defer releaseSlot()

	ctx, cancel := context.WithTimeout(tctx, limit)
	defer cancel()
	results := s.solveAll(ctx, problems, req.Stats)
	// Solver statistics are recorded before the disconnect check: the
	// pool did the work whether or not anyone is left to read the answer.
	resp := client.BatchResponse{Solutions: make([]client.Solution, len(results))}
	for i, res := range results {
		s.recordSolve(solveRecord(traceID, "batch", i, reqStart, res.queueWait, res.dur, res.sol, res.err, res.tr))
		if res.err != nil {
			resp.Solutions[i] = client.Solution{Error: itemError(res.err)}
			continue
		}
		s.met.recordSolution(res.sol)
		ws := toWireSolution(res.sol)
		if req.Stats {
			ws.Stats = solveStats(traceID, res.queueWait, res.dur, res.sol, res.tr)
		}
		resp.Solutions[i] = ws
	}
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "client went away")
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type itemResult struct {
	sol       rentmin.Solution
	err       error
	queueWait time.Duration // time spent waiting for a worker lease
	dur       time.Duration // time spent solving
	tr        *obs.Trace    // the item's own trace; nil unless the request opted into stats
}

// solveAll fans a batch out over the worker leases: up to Workers
// dispatcher goroutines claim problems in index order, and each solve
// takes its own lease before touching the pool — so batch items queue
// behind (and share capacity fairly with) every other request's solves
// instead of flooding the pool from behind a single lease. Lower indexes start first; once ctx is done or the server drains,
// remaining items fail fast with per-item errors. With stats, each item
// gets its own trace under the request's trace ID, carrying its queue
// and solve spans and, in its context, its search trajectory.
func (s *Server) solveAll(ctx context.Context, problems []*rentmin.Problem, stats bool) []itemResult {
	results := make([]itemResult, len(problems))
	dispatchers := s.cfg.Workers
	if dispatchers > len(problems) {
		dispatchers = len(problems)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < dispatchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(problems) {
					return
				}
				var tr *obs.Trace
				ictx := ctx
				if stats {
					tr = obs.NewTrace(obs.TraceID(ctx))
					ictx = obs.WithTrace(ctx, tr)
				}
				queueSpan := tr.StartSpan("queue")
				qStart := time.Now()
				releaseLease, err := s.leaseWait(ctx)
				qw := time.Since(qStart)
				queueSpan.End()
				if err != nil {
					results[i] = itemResult{err: err, queueWait: qw, tr: tr}
					continue // drain the remaining indexes fast
				}
				// Options are rebuilt per item: the batch deadline is
				// shared, so in coordinator mode each later item forwards
				// a smaller remaining limit (and an exhausted budget fails
				// the item instead of dispatching it).
				opts, err := s.solveOptions(ctx)
				if err != nil {
					releaseLease()
					results[i] = itemResult{err: err, queueWait: qw, tr: tr}
					continue
				}
				solveSpan := tr.StartSpan("solve")
				solveStart := time.Now()
				sol, err := s.pool.SolveContext(ictx, problems[i], opts)
				releaseLease()
				solveSpan.End()
				results[i] = itemResult{sol: sol, err: err, queueWait: qw, dur: time.Since(solveStart), tr: tr}
			}
		}()
	}
	wg.Wait()
	return results
}

// itemError renders a per-item batch failure.
func itemError(err error) string {
	switch {
	case errors.Is(err, errDraining):
		return "not solved: server is shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		return "not solved: batch deadline exceeded before this problem was solved"
	case errors.Is(err, context.Canceled):
		return "not solved: request cancelled"
	}
	return err.Error()
}

// handleCapacity reports the daemon's static sizing: what a coordinator
// needs to know to dispatch against this worker (most importantly the
// in-flight cap — the solver pool size). A draining daemon answers 503:
// advertising capacity it is about to tear down would enroll it into a
// fleet moments before it dies, and the coordinator's fleet dial and
// health probes key off this signal to skip and evict it.
func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.writeJSON(w, http.StatusOK, client.Capacity{
		Workers:       s.cfg.Workers,
		QueueCapacity: s.cfg.QueueDepth,
		MaxBatch:      s.cfg.MaxBatch,
	})
}

// --- content-addressed problem cache -----------------------------------------

// isProblemHash reports whether s is a plausible cache key: 64 lowercase
// hex characters (a SHA-256).
func isProblemHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleProblemPut stores one problem document in the content-addressed
// cache. The URL hash must match the SHA-256 of the body bytes exactly
// as received — the uploader hashes what it sends, the daemon verifies
// what it got — and the document passes the same fuzz-hardened ingestion
// and admission bounds as an inline problem, so the cache cannot hold
// anything /v1/solve would reject. Re-uploading an existing hash
// refreshes its LRU position.
func (s *Server) handleProblemPut(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	hash := strings.ToLower(r.PathValue("hash"))
	if !isProblemHash(hash) {
		s.writeError(w, http.StatusBadRequest, "malformed problem hash: want 64 hex characters (lowercase sha256)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("read document: %v", err))
		return
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != hash {
		s.writeError(w, http.StatusBadRequest, "document bytes do not hash to the requested key")
		return
	}
	p, err := core.ReadProblem(bytes.NewReader(body))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.admit(p); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.cache.put(hash, p)
	s.writeJSON(w, http.StatusCreated, map[string]string{"hash": hash})
}

// resolveRef materializes a problem from the cache, applying the ref's
// target patch. A hash the daemon does not hold answers 412 — the
// uploader's signal to PUT the document and retry.
func (s *Server) resolveRef(w http.ResponseWriter, ref client.ProblemRef, prefix string) (*rentmin.Problem, bool) {
	hash := strings.ToLower(strings.TrimSpace(ref.Hash))
	if !isProblemHash(hash) {
		s.writeError(w, http.StatusBadRequest, prefix+"malformed problem_ref hash: want 64 hex characters (lowercase sha256)")
		return nil, false
	}
	p, ok := s.cache.resolve(hash)
	if !ok {
		s.writeError(w, http.StatusPreconditionFailed,
			prefix+fmt.Sprintf("problem %s not cached: upload it via PUT /v1/problems/{hash} and retry", hash))
		return nil, false
	}
	if ref.Target != nil {
		p.Target = *ref.Target
		if err := p.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, prefix+fmt.Sprintf("invalid problem_ref target: %v", err))
			return nil, false
		}
	}
	return p, true
}

// --- fleet membership --------------------------------------------------------

// coordinator guards the membership endpoints: they only mean something
// on a daemon dispatching to a remote fleet with a dialer to admit new
// members.
func (s *Server) coordinator(w http.ResponseWriter) bool {
	if s.cfg.WorkerDialer == nil || !s.pool.Remote() {
		s.writeError(w, http.StatusNotImplemented,
			"this daemon is not a coordinator: fleet membership needs a remote-backed solver pool")
		return false
	}
	return true
}

// fleetResponse snapshots the fleet in wire form.
func (s *Server) fleetResponse() client.FleetResponse {
	stats := s.pool.WorkerStats()
	resp := client.FleetResponse{Workers: make([]client.FleetWorker, len(stats))}
	for i, ws := range stats {
		resp.Workers[i] = client.FleetWorker{
			Endpoint:   ws.Name,
			Capacity:   ws.Capacity,
			InFlight:   ws.InFlight,
			Dispatched: ws.Dispatched,
			Succeeded:  ws.Succeeded,
			Faults:     ws.Faults,
			Healthy:    ws.Healthy,
			Removed:    ws.Removed,
		}
	}
	return resp
}

// handleWorkerRegister admits a worker into the coordinator's fleet: the
// announced endpoint is dialed (capacity discovery doubles as the
// reachability check) and added to the dispatcher mid-flight, waking any
// batch starved of seats. Registration is idempotent — re-announcing
// refreshes capacity, and an evicted worker rejoins with clean health —
// so workers re-register on an interval rather than exactly once.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if !s.coordinator(w) {
		return
	}
	var req client.RegisterWorkerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ep := strings.TrimRight(strings.TrimSpace(req.Endpoint), "/")
	u, err := url.Parse(ep)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("worker endpoint %q is not an absolute http(s) URL", req.Endpoint))
		return
	}
	if _, err := s.pool.AddRemoteWorker(r.Context(), s.cfg.WorkerDialer(ep)); err != nil {
		// The worker announced itself but cannot answer /v1/capacity (or
		// is draining): leave the fleet unchanged and let it try again.
		s.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	s.log.Info("worker registered", "worker", ep)
	s.writeJSON(w, http.StatusOK, s.fleetResponse())
}

// handleWorkerList reports the coordinator's fleet, removed members
// included (flagged), so operators see eviction history next to live
// capacity.
func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	if !s.coordinator(w) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.fleetResponse())
}

// handleWorkerRemove takes a worker out of the fleet by endpoint
// (?endpoint=...): an operator draining a box ahead of the health loop
// noticing. In-flight solves on it finish or re-dispatch; it may rejoin
// by registering again.
func (s *Server) handleWorkerRemove(w http.ResponseWriter, r *http.Request) {
	if !s.coordinator(w) {
		return
	}
	ep := strings.TrimRight(strings.TrimSpace(r.URL.Query().Get("endpoint")), "/")
	if ep == "" {
		s.writeError(w, http.StatusBadRequest, "missing endpoint query parameter")
		return
	}
	if !s.pool.RemoveRemoteWorker(ep) {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("worker %q is not a live fleet member", ep))
		return
	}
	s.log.Info("worker removed", "worker", ep)
	s.writeJSON(w, http.StatusOK, s.fleetResponse())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := client.Health{
		Status:     "ok",
		Workers:    s.cfg.Workers,
		QueueDepth: int(s.queued.Load()),
		InFlight:   int(s.inFlight.Load()),
	}
	code := http.StatusOK
	if s.draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	active, created, evicted := s.sessions.stats()
	s.met.writeTo(w, gauges{
		workers:         s.cfg.Workers,
		queueCap:        s.cfg.QueueDepth,
		queueDepth:      int(s.queued.Load()),
		inFlight:        int(s.inFlight.Load()),
		draining:        s.draining(),
		remote:          s.pool.Remote(),
		fleet:           s.pool.WorkerStats(), // nil unless remote-backed
		evictions:       s.pool.WorkerEvictions(),
		cache:           s.cache.stats(),
		sessionsActive:  active,
		sessionsCreated: created,
		sessionsEvicted: evicted,
	})
}

// --- encoding helpers --------------------------------------------------------

// decodeBody decodes a JSON request envelope, rejecting unknown fields
// and bodies over the configured size, and answers 400 on any failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return false
	}
	return true
}

// parseProblem runs one problem document through the fuzz-hardened core
// ingestion (schema, unknown fields, model validation) and answers 400 on
// failure.
func (s *Server) parseProblem(w http.ResponseWriter, raw json.RawMessage, prefix string) (*rentmin.Problem, bool) {
	if len(raw) == 0 {
		s.writeError(w, http.StatusBadRequest, prefix+"missing problem document")
		return nil, false
	}
	p, err := core.ReadProblem(bytes.NewReader(raw))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, prefix+err.Error())
		return nil, false
	}
	return p, true
}

func toWireSolution(sol rentmin.Solution) client.Solution {
	return client.Solution{
		Allocation:  sol.Alloc,
		Proven:      sol.Proven,
		Bound:       sol.Bound,
		SearchStats: sol.SearchStats,
		ElapsedMs:   ms(sol.Elapsed),
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	// Every retryable rejection carries the Retry-After hint the client
	// package surfaces as APIError.RetryAfter.
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	s.writeJSON(w, code, client.ErrorResponse{Error: msg})
}
