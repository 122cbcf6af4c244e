package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"rentmin"
	"rentmin/internal/obs"
)

// latencyWindow is the sliding window used for the latency quantiles:
// large enough for stable p99, small enough to track load shifts.
const latencyWindow = 1024

// metrics accumulates the daemon's counters. All methods are safe for
// concurrent use; scraping takes the same mutex, which is fine at scrape
// rates (the hot path adds a handful of integers per request).
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]int64

	solves       int64 // problems solved to a 200 (batch items included)
	unproven     int64 // subset stopped by a deadline with Proven == false
	nodes        int64
	lpIterations int64
	lpSolves     int64

	lat *obs.Recorder[float64] // solve/batch request latencies, ms
	qw  *obs.Recorder[float64] // per-solve queue waits (lease acquisition), ms

	// Session re-solve accounting (/v1/sessions): committed re-solves
	// split by path (warm = seeded from the previous optimum), machine
	// moves and post-event fleet sizes for the churn ratio, and one
	// latency window per path so warm/cold speed stays comparable.
	sessWarm       int64
	sessCold       int64
	sessChurnMoves int64
	sessChurnBase  int64
	sessWarmMs     *obs.Recorder[float64]
	sessColdMs     *obs.Recorder[float64]
}

type reqKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{
		requests:   make(map[reqKey]int64),
		lat:        obs.NewRecorder[float64](latencyWindow),
		qw:         obs.NewRecorder[float64](latencyWindow),
		sessWarmMs: obs.NewRecorder[float64](latencyWindow),
		sessColdMs: obs.NewRecorder[float64](latencyWindow),
	}
}

// recordRequest counts one finished HTTP request.
func (m *metrics) recordRequest(endpoint string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
}

// recordLatency folds one successful solve/batch request latency into the
// quantile window.
func (m *metrics) recordLatency(ms float64) { m.lat.Add(ms) }

// recordQueueWait folds one solve's lease-wait time into its quantile
// window. Kept separate from recordLatency so dashboards can tell
// queueing delay (admission pressure) apart from solve time.
func (m *metrics) recordQueueWait(ms float64) { m.qw.Add(ms) }

// recordSolution folds one solved problem's solver statistics in.
func (m *metrics) recordSolution(sol rentmin.Solution) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves++
	if !sol.Proven {
		m.unproven++
	}
	m.nodes += int64(sol.Nodes)
	m.lpIterations += int64(sol.LPIterations)
	m.lpSolves += int64(sol.LPSolves)
}

// recordSessionResolve folds one committed session re-solve in: which
// path ran (warm or cold), its wall clock, and its churn (machine moves
// plus the post-event fleet size, the churn ratio's denominator).
func (m *metrics) recordSessionResolve(res *rentmin.SessionResolve) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if res.Warm {
		m.sessWarm++
		m.sessWarmMs.Add(ms(res.SolveTime))
	} else {
		m.sessCold++
		m.sessColdMs.Add(ms(res.SolveTime))
	}
	m.sessChurnMoves += int64(res.Churn)
	for _, n := range res.Alloc.Machines {
		m.sessChurnBase += int64(n)
	}
}

// gauges carries the instantaneous state the metrics page reports next to
// the accumulated counters.
type gauges struct {
	workers    int
	queueCap   int
	queueDepth int
	inFlight   int
	draining   bool
	// fleet is a coordinator's fleet, whose series are emitted even while
	// it is empty; nil on a plain daemon, which emits none.
	fleet *rentmin.SolverPool
	// cache is the content-addressed problem cache snapshot (every
	// daemon has one).
	cache cacheStats
	// sessionsActive/Created/Evicted snapshot the re-optimization
	// session table (/v1/sessions).
	sessionsActive  int
	sessionsCreated int64
	sessionsEvicted int64
}

// writeTo renders the Prometheus text exposition format.
func (m *metrics) writeTo(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP rentmind_requests_total Finished HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE rentmind_requests_total counter\n")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "rentmind_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP rentmind_solves_total Problems solved to a response (batch items counted individually).\n")
	fmt.Fprintf(w, "# TYPE rentmind_solves_total counter\n")
	fmt.Fprintf(w, "rentmind_solves_total %d\n", m.solves)
	fmt.Fprintf(w, "# HELP rentmind_unproven_solves_total Solves stopped by a deadline before optimality was proven.\n")
	fmt.Fprintf(w, "# TYPE rentmind_unproven_solves_total counter\n")
	fmt.Fprintf(w, "rentmind_unproven_solves_total %d\n", m.unproven)

	fmt.Fprintf(w, "# HELP rentmind_bb_nodes_total Branch-and-bound nodes explored.\n")
	fmt.Fprintf(w, "# TYPE rentmind_bb_nodes_total counter\n")
	fmt.Fprintf(w, "rentmind_bb_nodes_total %d\n", m.nodes)
	fmt.Fprintf(w, "# HELP rentmind_lp_iterations_total Simplex pivots across all node LP solves.\n")
	fmt.Fprintf(w, "# TYPE rentmind_lp_iterations_total counter\n")
	fmt.Fprintf(w, "rentmind_lp_iterations_total %d\n", m.lpIterations)
	fmt.Fprintf(w, "# HELP rentmind_lp_solves_total Node LP relaxations solved (warm plus cold).\n")
	fmt.Fprintf(w, "# TYPE rentmind_lp_solves_total counter\n")
	fmt.Fprintf(w, "rentmind_lp_solves_total %d\n", m.lpSolves)

	p50, p99 := windowQuantiles(m.lat)
	fmt.Fprintf(w, "# HELP rentmind_solve_latency_ms Solve/batch request latency over the last %d requests.\n", latencyWindow)
	fmt.Fprintf(w, "# TYPE rentmind_solve_latency_ms summary\n")
	fmt.Fprintf(w, "rentmind_solve_latency_ms{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(w, "rentmind_solve_latency_ms{quantile=\"0.99\"} %g\n", p99)

	q50, q99 := windowQuantiles(m.qw)
	fmt.Fprintf(w, "# HELP rentmind_queue_wait_ms Time solves spent waiting for a worker lease over the last %d solves (batch items and session re-solves counted individually).\n", latencyWindow)
	fmt.Fprintf(w, "# TYPE rentmind_queue_wait_ms summary\n")
	fmt.Fprintf(w, "rentmind_queue_wait_ms{quantile=\"0.5\"} %g\n", q50)
	fmt.Fprintf(w, "rentmind_queue_wait_ms{quantile=\"0.99\"} %g\n", q99)

	fmt.Fprintf(w, "# HELP rentmind_workers Number of worker leases, the most solves that run at once.\n")
	fmt.Fprintf(w, "# TYPE rentmind_workers gauge\n")
	fmt.Fprintf(w, "rentmind_workers %d\n", g.workers)
	fmt.Fprintf(w, "# HELP rentmind_queue_capacity Maximum queued requests beyond the in-flight ones.\n")
	fmt.Fprintf(w, "# TYPE rentmind_queue_capacity gauge\n")
	fmt.Fprintf(w, "rentmind_queue_capacity %d\n", g.queueCap)
	fmt.Fprintf(w, "# HELP rentmind_queue_depth Solves currently waiting for a worker lease.\n")
	fmt.Fprintf(w, "# TYPE rentmind_queue_depth gauge\n")
	fmt.Fprintf(w, "rentmind_queue_depth %d\n", g.queueDepth)
	fmt.Fprintf(w, "# HELP rentmind_inflight_solves Solves currently holding a worker lease.\n")
	fmt.Fprintf(w, "# TYPE rentmind_inflight_solves gauge\n")
	fmt.Fprintf(w, "rentmind_inflight_solves %d\n", g.inFlight)
	draining := 0
	if g.draining {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP rentmind_draining 1 while the server is shutting down.\n")
	fmt.Fprintf(w, "# TYPE rentmind_draining gauge\n")
	fmt.Fprintf(w, "rentmind_draining %d\n", draining)

	m.writeSessions(w, g)
	writeCache(w, g.cache)

	if g.fleet != nil {
		writeFleet(w, g.fleet)
	}
}

// writeSessions renders the re-optimization session series. Every series
// is emitted unconditionally — a zero-traffic daemon exports zeros (never
// NaN: the churn ratio's denominator guard), so dashboards and the CI
// smoke always find them. Caller holds mu.
func (m *metrics) writeSessions(w io.Writer, g gauges) {
	fmt.Fprintf(w, "# HELP rentmind_sessions_active Open re-optimization sessions.\n")
	fmt.Fprintf(w, "# TYPE rentmind_sessions_active gauge\n")
	fmt.Fprintf(w, "rentmind_sessions_active %d\n", g.sessionsActive)
	fmt.Fprintf(w, "# HELP rentmind_sessions_created_total Sessions opened via POST /v1/sessions.\n")
	fmt.Fprintf(w, "# TYPE rentmind_sessions_created_total counter\n")
	fmt.Fprintf(w, "rentmind_sessions_created_total %d\n", g.sessionsCreated)
	fmt.Fprintf(w, "# HELP rentmind_sessions_evicted_total Sessions closed by the idle-eviction sweep.\n")
	fmt.Fprintf(w, "# TYPE rentmind_sessions_evicted_total counter\n")
	fmt.Fprintf(w, "rentmind_sessions_evicted_total %d\n", g.sessionsEvicted)

	fmt.Fprintf(w, "# HELP rentmind_session_warm_resolves_total Session re-solves seeded from the previous optimum (incumbent cutoff + root basis).\n")
	fmt.Fprintf(w, "# TYPE rentmind_session_warm_resolves_total counter\n")
	fmt.Fprintf(w, "rentmind_session_warm_resolves_total %d\n", m.sessWarm)
	fmt.Fprintf(w, "# HELP rentmind_session_cold_resolves_total Session re-solves that ran cold (initial solves and ablations included).\n")
	fmt.Fprintf(w, "# TYPE rentmind_session_cold_resolves_total counter\n")
	fmt.Fprintf(w, "rentmind_session_cold_resolves_total %d\n", m.sessCold)
	fmt.Fprintf(w, "# HELP rentmind_session_events_total Committed session events (warm plus cold re-solves).\n")
	fmt.Fprintf(w, "# TYPE rentmind_session_events_total counter\n")
	fmt.Fprintf(w, "rentmind_session_events_total %d\n", m.sessWarm+m.sessCold)

	wp50, wp99 := windowQuantiles(m.sessWarmMs)
	cp50, cp99 := windowQuantiles(m.sessColdMs)
	fmt.Fprintf(w, "# HELP rentmind_session_resolve_ms Session re-solve wall clock by path over the last %d re-solves.\n", latencyWindow)
	fmt.Fprintf(w, "# TYPE rentmind_session_resolve_ms summary\n")
	fmt.Fprintf(w, "rentmind_session_resolve_ms{path=\"warm\",quantile=\"0.5\"} %g\n", wp50)
	fmt.Fprintf(w, "rentmind_session_resolve_ms{path=\"warm\",quantile=\"0.99\"} %g\n", wp99)
	fmt.Fprintf(w, "rentmind_session_resolve_ms{path=\"cold\",quantile=\"0.5\"} %g\n", cp50)
	fmt.Fprintf(w, "rentmind_session_resolve_ms{path=\"cold\",quantile=\"0.99\"} %g\n", cp99)

	fmt.Fprintf(w, "# HELP rentmind_session_churn_moves_total Machine moves committed by session re-solves (L1 distance between consecutive machine-count vectors).\n")
	fmt.Fprintf(w, "# TYPE rentmind_session_churn_moves_total counter\n")
	fmt.Fprintf(w, "rentmind_session_churn_moves_total %d\n", m.sessChurnMoves)
	ratio := 0.0
	if m.sessChurnBase > 0 {
		ratio = float64(m.sessChurnMoves) / float64(m.sessChurnBase)
	}
	fmt.Fprintf(w, "# HELP rentmind_session_churn_ratio Machine moves per fleet-machine across all session re-solves (0 with no traffic).\n")
	fmt.Fprintf(w, "# TYPE rentmind_session_churn_ratio gauge\n")
	fmt.Fprintf(w, "rentmind_session_churn_ratio %g\n", ratio)
}

// writeCache renders the content-addressed problem cache series. The
// hit ratio is the headline number: a target sweep over one instance
// should drive it toward 1.
func writeCache(w io.Writer, c cacheStats) {
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_entries Problem documents currently held by the content-addressed cache.\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_entries gauge\n")
	fmt.Fprintf(w, "rentmind_problem_cache_entries %d\n", c.entries)
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_capacity The cache's entry bound (LRU eviction beyond it).\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_capacity gauge\n")
	fmt.Fprintf(w, "rentmind_problem_cache_capacity %d\n", c.capacity)
	fmt.Fprintf(w, "# HELP rentmind_problem_uploads_total Documents stored via PUT /v1/problems (re-uploads of a held hash included).\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_uploads_total counter\n")
	fmt.Fprintf(w, "rentmind_problem_uploads_total %d\n", c.uploads)
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_hits_total problem_ref resolutions served from the cache.\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_hits_total counter\n")
	fmt.Fprintf(w, "rentmind_problem_cache_hits_total %d\n", c.hits)
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_misses_total problem_ref resolutions that answered 412 (hash not held).\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_misses_total counter\n")
	fmt.Fprintf(w, "rentmind_problem_cache_misses_total %d\n", c.misses)
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_evictions_total Documents dropped by LRU pressure.\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_evictions_total counter\n")
	fmt.Fprintf(w, "rentmind_problem_cache_evictions_total %d\n", c.evictions)
	ratio := 0.0
	if c.hits+c.misses > 0 {
		ratio = float64(c.hits) / float64(c.hits+c.misses)
	}
	fmt.Fprintf(w, "# HELP rentmind_problem_cache_hit_ratio Fraction of problem_ref resolutions served from the cache.\n")
	fmt.Fprintf(w, "# TYPE rentmind_problem_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "rentmind_problem_cache_hit_ratio %g\n", ratio)
}

// writeFleet renders a coordinator's fleet series. The whole-fleet ones
// (how many members are live, their summed capacity, and how many the
// strike threshold has evicted) are emitted, possibly as zeros, so
// autoscaling dashboards always find them; then one series per remote
// worker, labelled by its endpoint, for each health gauge.
func writeFleet(w io.Writer, fleet *rentmin.SolverPool) {
	stats := fleet.WorkerStats()
	size, capacity := 0, 0
	for _, ws := range stats {
		if !ws.Removed {
			size++
			capacity += ws.Capacity
		}
	}
	fmt.Fprintf(w, "# HELP rentmind_fleet_size Live fleet members (registered and not removed).\n")
	fmt.Fprintf(w, "# TYPE rentmind_fleet_size gauge\n")
	fmt.Fprintf(w, "rentmind_fleet_size %d\n", size)
	fmt.Fprintf(w, "# HELP rentmind_fleet_capacity Summed in-flight capacity of the live fleet.\n")
	fmt.Fprintf(w, "# TYPE rentmind_fleet_capacity gauge\n")
	fmt.Fprintf(w, "rentmind_fleet_capacity %d\n", capacity)
	fmt.Fprintf(w, "# HELP rentmind_worker_evictions_total Fleet members removed by the consecutive-strike threshold.\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_evictions_total counter\n")
	fmt.Fprintf(w, "rentmind_worker_evictions_total %d\n", fleet.WorkerEvictions())

	fmt.Fprintf(w, "# HELP rentmind_worker_up 1 while the remote worker is considered healthy (0 while it backs off after faults).\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_up gauge\n")
	for _, ws := range stats {
		up := 0
		if ws.Healthy {
			up = 1
		}
		fmt.Fprintf(w, "rentmind_worker_up{worker=%q} %d\n", ws.Name, up)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_capacity The worker's discovered in-flight cap (its worker leases).\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_capacity gauge\n")
	for _, ws := range stats {
		fmt.Fprintf(w, "rentmind_worker_capacity{worker=%q} %d\n", ws.Name, ws.Capacity)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_inflight_solves Solves currently dispatched to the worker.\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_inflight_solves gauge\n")
	for _, ws := range stats {
		fmt.Fprintf(w, "rentmind_worker_inflight_solves{worker=%q} %d\n", ws.Name, ws.InFlight)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_dispatches_total Solve dispatches handed to the worker (re-dispatches count per attempt).\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_dispatches_total counter\n")
	for _, ws := range stats {
		fmt.Fprintf(w, "rentmind_worker_dispatches_total{worker=%q} %d\n", ws.Name, ws.Dispatched)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_successes_total Dispatches the worker answered without a fault (a task-level error returned to the caller still counts: it follows the problem, not the worker).\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_successes_total counter\n")
	for _, ws := range stats {
		fmt.Fprintf(w, "rentmind_worker_successes_total{worker=%q} %d\n", ws.Name, ws.Succeeded)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_faults_total Dispatches that ended in a worker fault (connection failure or exhausted transient retries) and were re-dispatched.\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_faults_total counter\n")
	for _, ws := range stats {
		fmt.Fprintf(w, "rentmind_worker_faults_total{worker=%q} %d\n", ws.Name, ws.Faults)
	}
	fmt.Fprintf(w, "# HELP rentmind_worker_dispatch_rtt_ms Round-trip time of successful dispatches to the worker (sliding window).\n")
	fmt.Fprintf(w, "# TYPE rentmind_worker_dispatch_rtt_ms summary\n")
	for _, ws := range stats {
		if ws.RTTSamples == 0 {
			continue // no successful dispatch yet: no window to summarize
		}
		fmt.Fprintf(w, "rentmind_worker_dispatch_rtt_ms{worker=%q,quantile=\"0.5\"} %g\n", ws.Name, ws.RTTp50Ms)
		fmt.Fprintf(w, "rentmind_worker_dispatch_rtt_ms{worker=%q,quantile=\"0.99\"} %g\n", ws.Name, ws.RTTp99Ms)
	}
}

// windowQuantiles returns (p50, p99) over a latency window, (0, 0)
// while it is empty: /metrics never prints NaN.
func windowQuantiles(w *obs.Recorder[float64]) (p50, p99 float64) {
	samples := w.Last(0)
	if len(samples) == 0 {
		return 0, 0
	}
	qs := obs.Quantiles(samples, 0.50, 0.99)
	return qs[0], qs[1]
}
