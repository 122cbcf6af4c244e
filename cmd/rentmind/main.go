// Command rentmind serves rental-minimization solves over HTTP: a batch
// solve service bounded by worker leases, with problem-size admission
// control, a bounded work queue, per-request deadlines that cancel the
// branch-and-bound search between nodes, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	rentmind [-addr :8080] [-solve-workers 0] [-queue 64]
//	         [-max-graphs 64] [-max-types 256] [-max-tasks 8192]
//	         [-max-target 1000000] [-max-batch 64] [-max-body 16777216]
//	         [-default-time-limit 10s] [-max-time-limit 60s]
//	         [-shutdown-grace 30s] [-problem-cache 256]
//	         [-debug-solves 64] [-pprof]
//	         [-max-sessions 64] [-session-idle 15m]
//	         [-coordinator] [-workers-endpoints http://w1:8080,http://w2:8080]
//	         [-workers-wait 15s] [-evict-strikes 3] [-health-interval 5s]
//	         [-register http://coord:8080 -advertise http://me:8080
//	          [-register-interval 15s]]
//
// With -coordinator (or a non-empty -workers-endpoints) the daemon runs
// in coordinator mode: instead of solving in-process it dispatches every
// solve — batch items individually — across its fleet of rentmind
// worker daemons, discovering each worker's in-flight cap from its
// GET /v1/capacity, re-dispatching items away from faulted workers with
// exponential backoff, and exporting fleet health gauges on /metrics.
// The fleet is elastic: -workers-endpoints only seeds it, workers join
// at runtime through POST /v1/workers (see -register below), a health
// probe loop strikes unresponsive members every -health-interval, and
// -evict-strikes consecutive strikes evict one (it rejoins by
// re-registering). Dispatches are content-addressed: each problem
// document is uploaded to a worker once and solved by reference
// thereafter. The HTTP API is identical in both modes; see
// docs/distributed.md for the topology and membership protocol.
//
// A worker daemon given -register announces itself to that coordinator
// at boot and every -register-interval thereafter (-advertise is its own
// base URL as the coordinator should dial it), so killed-and-replaced
// workers enroll themselves without coordinator reconfiguration.
//
// Endpoints (wire types in package rentmin/client, architecture in
// internal/server):
//
//	POST /v1/solve         solve one problem (inline document or problem_ref)
//	POST /v1/batch         solve many problems concurrently
//	PUT  /v1/problems/{h}  upload a problem document to the
//	                       content-addressed cache (h = sha256 of the bytes)
//	POST /v1/sessions      open an online re-optimization session: the daemon
//	                       adopts the problem, solves it, and keeps the
//	                       optimum warm for the event stream (docs/sessions.md)
//	POST /v1/sessions/{id}/events
//	                       stream events (recipe arrival/departure, target or
//	                       price change, outage/restore); each commits one
//	                       warm re-solve with per-event churn accounting
//	GET  /v1/sessions/{id} session snapshot: current optimum, offline types,
//	                       warm/cold resolve counters, cumulative churn
//	DELETE /v1/sessions/{id}
//	                       close a session (idle ones expire by themselves
//	                       after -session-idle)
//	POST /v1/workers       register a worker with a coordinator
//	GET  /v1/workers       list the coordinator's fleet
//	DELETE /v1/workers     remove a worker (?endpoint=...)
//	GET  /v1/capacity      static sizing for coordinators (503 while
//	                       draining, so fleets skip dying workers)
//	GET  /healthz          liveness and queue gauges (503 while draining)
//	GET  /metrics          Prometheus-style counters: solve counts, queue
//	                       depth, p50/p99 latency and queue wait, LP totals,
//	                       problem-cache hit ratio, session warm/cold resolve
//	                       split and churn ratio, fleet size, per-worker
//	                       health and dispatch RTT in coordinator mode
//	GET  /debug/solves     the solve flight recorder: the last -debug-solves
//	                       solve summaries (trace IDs, queue wait, worker
//	                       attribution, LP counters), newest first
//	GET  /debug/pprof/     runtime profiles, mounted only with -pprof
//
// Every solve carries a trace ID (the X-Rentmin-Trace-Id header, minted
// when the client sends none) that the coordinator forwards with each
// dispatch, so one ID names a solve across the whole fleet — in response
// headers, structured logs, /debug/solves, and the opt-in "stats" response
// block (see docs/observability.md).
//
// A quick round trip against a running daemon:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/solve \
//	     -d '{"problem": '"$(cat instance.json)"', "time_limit_ms": 2000}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// fatal logs one structured error line and exits: the slog equivalent of
// log.Fatalf for the daemon's unrecoverable boot failures.
func fatal(msg string, args ...interface{}) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	// Structured key=value logging: every solve line carries trace_id and
	// worker fields, so one grep follows a request across a coordinator's
	// and its workers' logs.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("solve-workers", 0, "worker leases: the most solves that run at once (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admitted requests that may wait for a solver beyond the in-flight ones (overflow answers 429)")
	maxGraphs := flag.Int("max-graphs", 64, "admission limit: recipe graphs per problem (oversize answers 422)")
	maxTypes := flag.Int("max-types", 256, "admission limit: machine types per problem")
	maxTasks := flag.Int("max-tasks", 8192, "admission limit: total tasks across a problem's graphs")
	maxTarget := flag.Int("max-target", 1_000_000, "admission limit: target throughput")
	maxBatch := flag.Int("max-batch", 64, "admission limit: problems per /v1/batch request")
	maxBody := flag.Int64("max-body", 16<<20, "request body size limit in bytes")
	defaultLimit := flag.Duration("default-time-limit", 10*time.Second, "solve deadline when the request sends none")
	maxLimit := flag.Duration("max-time-limit", 60*time.Second, "hard cap on client-requested solve deadlines")
	grace := flag.Duration("shutdown-grace", 30*time.Second, "how long to wait for in-flight solves on SIGINT/SIGTERM")
	problemCache := flag.Int("problem-cache", 256, "content-addressed problem cache entries (LRU eviction beyond)")
	maxSessions := flag.Int("max-sessions", 64, "open re-optimization sessions (creating beyond answers 429)")
	sessionIdle := flag.Duration("session-idle", 15*time.Minute, "evict sessions with no traffic for this long")
	coordinator := flag.Bool("coordinator", false, "run as a coordinator even with no seed workers: the fleet starts empty and fills as workers register via POST /v1/workers")
	workersEndpoints := flag.String("workers-endpoints", "", "comma-separated rentmind worker base URLs seeding the coordinator's fleet; implies -coordinator")
	workersWait := flag.Duration("workers-wait", 15*time.Second, "how long to keep retrying worker capacity discovery at coordinator startup")
	evictStrikes := flag.Int("evict-strikes", 3, "consecutive strikes (dispatch faults + failed health probes) that evict a fleet member; 0 never evicts")
	healthInterval := flag.Duration("health-interval", 5*time.Second, "coordinator fleet health-probe interval; 0 disables probing")
	register := flag.String("register", "", "coordinator base URL to register this worker with, at boot and every -register-interval")
	advertise := flag.String("advertise", "", "this worker's own base URL as the coordinator should dial it (required with -register)")
	registerInterval := flag.Duration("register-interval", 15*time.Second, "how often to re-announce to the -register coordinator (re-registration is idempotent and revives an evicted worker)")
	debugSolves := flag.Int("debug-solves", 64, "solve flight-recorder entries served by GET /debug/solves")
	pprofFlag := flag.Bool("pprof", false, "mount the net/http/pprof profiling handlers under /debug/pprof/ (unauthenticated: keep it off the open internet)")
	flag.Parse()

	cfg := server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		MaxGraphs:          *maxGraphs,
		MaxTypes:           *maxTypes,
		MaxTasks:           *maxTasks,
		MaxTarget:          *maxTarget,
		MaxBatch:           *maxBatch,
		MaxBodyBytes:       *maxBody,
		DefaultTimeLimit:   *defaultLimit,
		MaxTimeLimit:       *maxLimit,
		ProblemCacheSize:   *problemCache,
		MaxSessions:        *maxSessions,
		SessionIdleTimeout: *sessionIdle,
		DebugSolves:        *debugSolves,
		Pprof:              *pprofFlag,
	}
	if *register != "" && *advertise == "" {
		fatal("-register needs -advertise (the base URL the coordinator dials this worker at)")
	}
	if *coordinator || *workersEndpoints != "" {
		var seeds []string
		if *workersEndpoints != "" {
			seeds = strings.Split(*workersEndpoints, ",")
		}
		fleet, dialer, err := dialFleet(seeds, *workersWait, *evictStrikes)
		if err != nil {
			fatal("coordinator fleet dial failed", "err", err)
		}
		cfg.SolverPool = fleet
		cfg.WorkerDialer = dialer
		cfg.HealthInterval = *healthInterval
		if *workers == 0 {
			cfg.Workers = 0 // size the lease table for an elastic fleet
		}
		slog.Info("coordinator mode", "workers", len(fleet.WorkerStats()), "fleet_capacity", fleet.Workers(),
			"note", "elastic: POST /v1/workers to join")
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	slog.Info("serving", "addr", *addr, "solve_workers", srv.Workers(), "queue", *queue, "pprof", *pprofFlag)

	if *register != "" {
		go registerLoop(ctx, strings.TrimRight(strings.TrimSpace(*register), "/"), *advertise, *registerInterval)
	}

	select {
	case err := <-errCh:
		srv.Close()
		fatal("listen failed", "err", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop routing (healthz 503, queued requests fail
	// fast), let in-flight solves finish within the grace period, then
	// stop the daemon's loops.
	slog.Info("signal received, draining", "grace", *grace)
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		slog.Warn("shutdown error", "err", err)
	}
	srv.Close()
	slog.Info("drained, bye")
}

// dialFleet builds the remote-backed solver pool, retrying capacity
// discovery until every seed worker answered or the wait budget is
// spent — coordinator and workers usually boot together, so the first
// probes may land before the workers listen. Configuration errors (a
// malformed URL) are permanent and fail immediately; only discovery
// failures are worth the retry budget. An empty seed list is fine: the
// fleet starts empty and fills as workers register.
func dialFleet(endpoints []string, wait time.Duration, evictStrikes int) (*rentmin.SolverPool, client.WorkerDialer, error) {
	var cleaned []string
	for _, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		u, err := url.Parse(ep)
		if err != nil {
			return nil, nil, fmt.Errorf("invalid worker endpoint %q: %v", ep, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, nil, fmt.Errorf("invalid worker endpoint %q: need an http(s) base URL", ep)
		}
		if u.Host == "" {
			return nil, nil, fmt.Errorf("invalid worker endpoint %q: missing host", ep)
		}
		cleaned = append(cleaned, ep)
	}
	fcfg := &client.FleetConfig{EvictStrikes: evictStrikes}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	for {
		fleet, dialer, err := client.NewElasticFleet(ctx, cleaned, fcfg)
		if err == nil {
			return fleet, dialer, nil
		}
		select {
		case <-ctx.Done():
			return nil, nil, err
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// registerLoop announces this worker to a coordinator: a persistent
// retry at boot (the coordinator may not be up yet), then a periodic
// re-announce so a worker the coordinator evicted — or a coordinator
// that restarted with an empty fleet — re-enrolls it without operator
// action. Registration is idempotent on the coordinator side.
func registerLoop(ctx context.Context, coordinator, advertise string, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	c := client.New(coordinator)
	registered := false
	failures := 0
	for {
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := c.RegisterWorker(rctx, advertise)
		cancel()
		switch {
		case err == nil:
			if !registered || failures > 0 {
				slog.Info("registered with coordinator", "coordinator", coordinator, "advertise", advertise)
			}
			registered = true
			failures = 0
		default:
			failures++
			if failures == 1 || failures%10 == 0 {
				slog.Warn("worker registration failed", "coordinator", coordinator, "attempt", failures, "err", err)
			}
		}
		delay := interval
		if !registered {
			// Boot retry: the coordinator is probably seconds away.
			delay = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}
