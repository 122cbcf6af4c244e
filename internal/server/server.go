package server

import (
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
	// Workers is the number of worker leases — how many solves run at
	// once (0 = GOMAXPROCS). Each solve runs on the goroutine holding its
	// lease, which keeps per-request latency predictable under load.
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
	// SolverPool, when non-nil, makes the daemon a coordinator over this
	// remote-backed fleet (rentmin/client.NewFleet over worker daemons):
	// every solve and batch item is dispatched across it, and the
	// workers' health is exported on /metrics. A pool holds nothing that
	// needs closing, and Server.Close leaves it as it is. Workers defaults
	// to the fleet's capacity (or, with WorkerDialer set, a large lease
	// table sized for a fleet that grows after boot). A plain daemon
	// leaves it nil and solves in-process.
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
	// GET /debug/solves (0 = 64 entries): every solve, batch item and
	// session re-solve — failed ones included — leaves a summary record
	// in the ring.
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
	switch {
	case c.Workers > 0:
	case c.SolverPool == nil:
		c.Workers = runtime.GOMAXPROCS(0)
	case c.WorkerDialer != nil:
		c.Workers = elasticLeases
	default:
		c.Workers = c.SolverPool.Workers()
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
	fleet *rentmin.SolverPool // the coordinator's fleet; nil on a plain daemon
	mux   *http.ServeMux
	met   *metrics
	cache *problemCache
	rec   *obs.Recorder[client.DebugSolve] // solve flight recorder (GET /debug/solves)
	log   *slog.Logger

	// slots admits a request into the system (capacity Workers+QueueDepth,
	// try-acquire → 429); leases let it solve (capacity Workers).
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

// New builds a Server. With Config.SolverPool set it is a coordinator
// and adopts that fleet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		fleet:  cfg.SolverPool,
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
	if cfg.HealthInterval > 0 && s.fleet != nil {
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
			for _, name := range s.fleet.ProbeWorkers(ctx) {
				s.log.Warn("evicted unresponsive worker", "worker", name, "rejoin", "re-register")
			}
			cancel()
		}
	}
}

// Workers returns the number of worker leases.
func (s *Server) Workers() int { return s.cfg.Workers }

// BeginDrain starts a graceful shutdown: /healthz flips to 503, new and
// queued requests fail fast with 503, in-flight solves keep running.
// Safe to call more than once.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Close stops the daemon's loops and waits for them to exit. Call it
// only after the HTTP server has stopped dispatching requests
// (http.Server.Shutdown / httptest.Server Close). Close implies BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		if s.healthDone != nil {
			<-s.healthDone // no probe outlives Close
		}
		<-s.sessDone // the eviction loop closes every remaining session
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
// Workers solves ever run at once.
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

// solveTimeLimit resolves a client-requested limit against the server
// default and maximum. A negative limit is a client bug — the Options
// API can produce one from a negative time.Duration — and is rejected
// rather than silently swapped for the default. The clamp compares in
// milliseconds, before any conversion: time_limit_ms above about 292
// years would overflow a time.Duration.
func (s *Server) solveTimeLimit(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("negative time_limit_ms %d", ms)
	}
	d := s.cfg.DefaultTimeLimit
	if ms > 0 {
		if ms > s.cfg.MaxTimeLimit.Milliseconds() {
			return s.cfg.MaxTimeLimit, nil
		}
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeLimit), nil
}

// --- the request path --------------------------------------------------------

// request is a solving request past its prologue.
type request struct {
	ctx     context.Context // the HTTP request's context, carrying the trace ID
	traceID string
	limit   time.Duration // the resolved time_limit_ms
	// start is the request's arrival and decoded the instant the handler
	// had taken in every problem. Every offset of the request's stats
	// blocks counts from start; stats is set when the request asked for
	// them.
	start, decoded time.Time
	stats          bool
}

// prologue is the first step of every solving request: the drain check,
// the trace ID, the envelope decode into env and the time limit, read
// from *limitMs once env is decoded. On failure it has already written
// the response.
func (s *Server) prologue(w http.ResponseWriter, r *http.Request, env interface{}, limitMs *int64) (request, bool) {
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return request{}, false
	}
	rq := request{start: time.Now()}
	rq.ctx, rq.traceID = s.traceContext(w, r)
	if !s.decodeBody(w, r, env) {
		return request{}, false
	}
	var err error
	if rq.limit, err = s.solveTimeLimit(*limitMs); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return request{}, false
	}
	return rq, true
}

// endDecode ends the decode phase once every problem is taken in.
func (rq *request) endDecode(stats bool) {
	rq.decoded = time.Now()
	rq.stats = stats
}

// intake turns one problem, given inline (in) or by reference to the
// content-addressed cache (ref), into an admitted problem. An inline
// document the envelope scan decoded is validated; one left as bytes
// runs through the fuzz-hardened core ingestion; a cached one passed it
// at upload, so only the ref's target patch is checked. A non-nil
// target then overrides the target, and the result must pass the
// admission bounds. item is the problem's index in a batch, which every
// rejection names, or -1 for a request of one problem. On failure
// intake has already written the rejection: 400 for a malformed
// problem, 412 for a hash the daemon does not hold — the uploader's
// signal to PUT the document and retry — and 422 for a problem over the
// admission bounds.
func (s *Server) intake(w http.ResponseWriter, in inline, ref *client.ProblemRef, target *int, item int) (*rentmin.Problem, bool) {
	reject := func(code int, msg string) (*rentmin.Problem, bool) {
		if item >= 0 {
			// Built only for a rejection: an accepted item costs no string.
			msg = fmt.Sprintf("problem %d: %s", item, msg)
		}
		s.writeError(w, code, msg)
		return nil, false
	}
	var p *rentmin.Problem
	var err error
	switch {
	case ref != nil && (in.p != nil || len(in.doc) > 0):
		return reject(http.StatusBadRequest, "problem and problem_ref are mutually exclusive")
	case ref != nil:
		hash := strings.ToLower(strings.TrimSpace(ref.Hash))
		if !isProblemHash(hash) {
			return reject(http.StatusBadRequest, "malformed problem_ref hash: want 64 hex characters (lowercase sha256)")
		}
		var ok bool
		if p, ok = s.cache.resolve(hash); !ok {
			return reject(http.StatusPreconditionFailed,
				fmt.Sprintf("problem %s not cached: upload it via PUT /v1/problems/{hash} and retry", hash))
		}
		if ref.Target != nil {
			p.Target = *ref.Target
			if err := p.ValidateTarget(); err != nil {
				return reject(http.StatusBadRequest, fmt.Sprintf("invalid problem_ref target: %v", err))
			}
		}
	case in.p != nil:
		if p, err = core.Validated(in.p); err != nil {
			return reject(http.StatusBadRequest, err.Error())
		}
	case len(in.doc) == 0:
		return reject(http.StatusBadRequest, "missing problem document")
	default:
		if p, err = core.ParseProblem(in.doc); err != nil {
			return reject(http.StatusBadRequest, err.Error())
		}
	}
	if target != nil {
		p.Target = *target
		if err := p.ValidateTarget(); err != nil {
			return reject(http.StatusBadRequest, fmt.Sprintf("invalid target override: %v", err))
		}
	}
	if err := s.admit(p); err != nil {
		return reject(http.StatusUnprocessableEntity, err.Error())
	}
	return p, true
}

type itemResult struct {
	sol       rentmin.Solution
	err       error
	leased    bool          // false when the lease wait failed and the problem never reached a solver
	queued    time.Time     // when run claimed the item: the start of its queue phase
	queueWait time.Duration // time spent waiting for a worker lease
	dur       time.Duration // time spent solving

	// The item's search trajectory, taken once after its step; empty
	// unless the request opted into stats.
	incumbents []obs.IncumbentPoint
	rounds     []obs.RoundPoint
	truncated  bool
}

// run runs one solve step of rq and accounts for it: it waits for a
// worker lease under ctx, runs the step with the lease held, releases the
// lease as soon as the step returns, and files the step's one
// flight-recorder record, queue-wait sample and log line, whether or not
// the lease was granted. Every leased solve starts here: the one-shot
// solve of a /v1/solve or /v1/batch problem, a session's creating solve
// and each of its re-solves. endpoint and item name the step in its
// record; attrs are further attributes of its log line. The step's
// deadline is rq's limit from the lease grant, and never later than
// ctx's own: a batch's ctx carries the batch deadline, which began before
// its items queued.
//
// Three clock readings time the step: when run claims it, when the lease
// is granted, which ends the queue phase and starts the solve phase, and
// when the step returns. For a request that asked for stats, the step's
// context carries a search trace of its own, counting from the request's
// arrival like every other offset of the stats block.
func (s *Server) run(ctx context.Context, rq request, endpoint string, item int, step func(context.Context) (rentmin.Solution, error), attrs ...slog.Attr) itemResult {
	res := itemResult{queued: time.Now()}
	releaseLease, err := s.leaseWait(ctx)
	granted := time.Now()
	res.queueWait = granted.Sub(res.queued)
	res.err = err
	if err == nil {
		res.leased = true
		ctx, cancel := context.WithTimeout(ctx, rq.limit)
		var tr *obs.Trace
		if rq.stats {
			tr = obs.NewTrace(rq.start)
			ctx = obs.WithTrace(ctx, tr)
		}
		res.sol, res.err = guard(ctx, step)
		releaseLease()
		res.dur = time.Since(granted)
		cancel()
		res.incumbents, res.rounds, res.truncated = tr.Trajectory()
	}
	s.recordSolve(solveRecord(&rq, endpoint, item, res), attrs...)
	return res
}

// guard runs one leased step. leaseWait can grant a lease to a ctx that
// is done; such a step does not start (the solver would answer its H1
// seed). A panic fails only its step: a batch dispatcher has no recover.
func guard(ctx context.Context, step func(context.Context) (rentmin.Solution, error)) (sol rentmin.Solution, err error) {
	if err := ctx.Err(); err != nil {
		return sol, err
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("solve panicked: %v", v)
		}
	}()
	return step(ctx)
}

// localSolve is the solver of a plain daemon; a test swaps it.
var localSolve = rentmin.SolveContext

// solve is the step of a one-shot problem: it runs on the coordinator's
// fleet or on the calling goroutine.
func (s *Server) solve(ctx context.Context, p *rentmin.Problem) (rentmin.Solution, error) {
	if s.fleet != nil {
		return s.fleet.SolveContext(ctx, p, nil)
	}
	return localSolve(ctx, p, nil)
}

// writeRunError answers a request of one solve whose run failed: 503 when
// its lease wait failed or its client went away, 504 when its time limit
// passed before any feasible allocation was found, 500 otherwise.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, res itemResult) {
	switch {
	case errors.Is(res.err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case !res.leased:
		// The client is gone (or its deadline passed) while queued; the
		// response is best-effort.
		s.writeError(w, http.StatusServiceUnavailable, "request cancelled while queued")
	case r.Context().Err() != nil:
		// Client disconnect: the search already stopped; nobody is
		// reading, but finish the exchange cleanly.
		s.writeError(w, http.StatusServiceUnavailable, "client went away")
	case errors.Is(res.err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout,
			"time limit hit before any feasible allocation was found")
	default:
		s.writeError(w, http.StatusInternalServerError, res.err.Error())
	}
}

// answer folds one item's solution into the solution metrics and renders
// it for the wire, with the stats block when the request asked for it. A
// failed solve returns its error.
func (s *Server) answer(rq *request, res itemResult) (client.Solution, error) {
	if res.err != nil {
		return client.Solution{}, res.err
	}
	s.met.recordSolution(res.sol)
	ws := toWireSolution(res.sol)
	if rq.stats {
		ws.Stats = solveStats(rq, res)
	}
	return ws, nil
}

// --- handlers ----------------------------------------------------------------

// handleSolve serves one problem as a batch of one, on the handler's
// goroutine. Unlike a batch, its deadline starts when its lease is
// granted.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var env solveEnvelope
	rq, ok := s.prologue(w, r, &env, &env.TimeLimitMs)
	if !ok {
		return
	}
	p, ok := s.intake(w, env.inline(), env.ProblemRef, env.Target, -1)
	if !ok {
		return
	}
	rq.endDecode(env.Stats)
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		return
	}
	defer releaseSlot()
	res := s.run(rq.ctx, rq, "solve", -1, func(ctx context.Context) (rentmin.Solution, error) {
		return s.solve(ctx, p)
	})
	if ws, err := s.answer(&rq, res); err == nil {
		s.writeJSON(w, http.StatusOK, ws)
		return
	}
	s.writeRunError(w, r, res)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var env batchEnvelope
	rq, ok := s.prologue(w, r, &env, &env.TimeLimitMs)
	if !ok {
		return
	}
	problems, ok := s.batchIntake(w, &env)
	if !ok {
		return
	}
	rq.endDecode(env.Stats)
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		return
	}
	defer releaseSlot()
	results := s.solveAll(rq, problems)
	// Solution metrics are recorded before the disconnect check: the
	// solver did the work whether or not anyone is left to read the answer.
	resp := client.BatchResponse{Solutions: make([]client.Solution, len(results))}
	for i, res := range results {
		ws, err := s.answer(&rq, res)
		if err != nil {
			ws = client.Solution{Error: itemError(err)}
		}
		resp.Solutions[i] = ws
	}
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "client went away")
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// batchIntake takes in every problem of a batch, in index order, after
// the checks on the batch as a whole. On failure it has already written
// the rejection.
func (s *Server) batchIntake(w http.ResponseWriter, env *batchEnvelope) ([]*rentmin.Problem, bool) {
	if env.docs() > 0 && len(env.ProblemRefs) > 0 {
		s.writeError(w, http.StatusBadRequest, "problems and problem_refs are mutually exclusive")
		return nil, false
	}
	n := env.docs() + len(env.ProblemRefs)
	if n == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no problems")
		return nil, false
	}
	if n > s.cfg.MaxBatch {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("batch has %d problems, admission limit is %d", n, s.cfg.MaxBatch))
		return nil, false
	}
	problems := make([]*rentmin.Problem, n)
	for i := range problems {
		in, ref := env.item(i)
		var ok bool
		if problems[i], ok = s.intake(w, in, ref, nil, i); !ok {
			return nil, false
		}
	}
	return problems, true
}

// solveAll fans a batch out over the worker leases: up to Workers
// dispatcher goroutines claim problems in index order and run each —
// so batch items queue behind (and share capacity fairly with) every
// other request's solves instead of flooding the solvers from behind a
// single lease. The batch has one deadline, rq's limit from now, which
// covers queueing too. Lower indexes start first; once it passes, rq's
// context is done or the server drains, remaining items fail fast with
// per-item errors.
func (s *Server) solveAll(rq request, problems []*rentmin.Problem) []itemResult {
	ctx, cancel := context.WithTimeout(rq.ctx, rq.limit)
	defer cancel()
	results := make([]itemResult, len(problems))
	dispatchers := min(s.cfg.Workers, len(problems))
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
				results[i] = s.run(ctx, rq, "batch", i, func(ctx context.Context) (rentmin.Solution, error) {
					return s.solve(ctx, problems[i])
				})
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
// in-flight cap, its number of worker leases). A draining daemon answers 503:
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
	p, err := core.ParseProblem(body)
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

// --- fleet membership --------------------------------------------------------

// coordinator guards the membership endpoints: they only mean something
// on a daemon dispatching to a remote fleet with a dialer to admit new
// members.
func (s *Server) coordinator(w http.ResponseWriter) bool {
	if s.cfg.WorkerDialer == nil || s.fleet == nil {
		s.writeError(w, http.StatusNotImplemented,
			"this daemon is not a coordinator: fleet membership needs a remote-backed solver pool")
		return false
	}
	return true
}

// fleetResponse snapshots the fleet.
func (s *Server) fleetResponse() client.FleetResponse {
	return client.FleetResponse{Workers: s.fleet.WorkerStats()}
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
	if _, err := s.fleet.AddRemoteWorker(r.Context(), s.cfg.WorkerDialer(ep)); err != nil {
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
	if !s.fleet.RemoveRemoteWorker(ep) {
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
		fleet:           s.fleet,
		cache:           s.cache.stats(),
		sessionsActive:  active,
		sessionsCreated: created,
		sessionsEvicted: evicted,
	})
}

// --- encoding helpers --------------------------------------------------------

// decodeBody decodes a JSON request envelope, rejecting unknown fields,
// bodies over the configured size and anything but whitespace after the
// envelope, and answers 400 on any failure. A fastEnvelope's body is read
// whole first, into a buffer sized from Content-Length, and goes to
// encoding/json only when its scan refuses it; encoding/json then reads
// the buffered bytes and the read's error, so it answers as it would
// have answered reading the body itself.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var body io.Reader = r.Body
	if env, ok := v.(fastEnvelope); ok {
		data, err := readBody(r.Body, min(r.ContentLength, s.cfg.MaxBodyBytes))
		if err == io.EOF && env.scan(data) {
			return true
		}
		body, v = &replay{data: data, err: err}, env.reference()
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only the end of the body may follow the envelope. A body cut
		// by the size limit there is reported as such.
		var tooLarge *http.MaxBytesError
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooLarge) {
			err = errors.New("trailing data after the request")
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return false
	}
	return true
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

// writeJSON answers 500, never a 200 without a body, when v does not encode.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(client.ErrorResponse{Error: "encode response: " + err.Error()}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	// Every retryable rejection carries a one-second Retry-After hint,
	// which the client package surfaces as APIError.RetryAfter.
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, code, client.ErrorResponse{Error: msg})
}
