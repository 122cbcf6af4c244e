package client

import (
	"encoding/json"
	"time"

	"rentmin"
	"rentmin/internal/obs"
)

// Wire types of the rentmind HTTP API (see internal/server for the
// daemon). They live in this package — not in the server — so that
// external programs can name them: the server imports them back, which
// guarantees client and daemon can never drift apart.

// ProblemRef names a problem document already uploaded to the daemon's
// content-addressed cache (PUT /v1/problems/{hash}) instead of inlining
// it: a sweep of 1000 targets over one instance ships the document once
// and 1000 tiny refs. A daemon that no longer holds the hash (LRU
// eviction, restart) rejects the request with HTTP 412; the caller
// re-uploads and retries (rentmin/client.Worker does this
// automatically).
type ProblemRef struct {
	// Hash is the lowercase hex SHA-256 of the uploaded document bytes.
	// ProblemHash computes it over the canonical compact-JSON document;
	// the daemon accepts any document uploaded under its own hash.
	Hash string `json:"hash"`
	// Target, when non-nil, patches the cached document's
	// target_throughput for this solve. Canonical documents carry
	// target 0, so refs carry the target explicitly. The document was
	// validated at upload; the daemon checks only the patched target.
	Target *int `json:"target,omitempty"`
}

// SolveRequest is the body of POST /v1/solve. Client.Solve and SolveRef
// write it by hand, byte for byte as json.Marshal writes it, with the
// compact document appended as it is rather than compacted again. The
// daemon reads a body of that shape in one pass, documents included, and
// any other body with encoding/json.
type SolveRequest struct {
	// Problem is one MinCost instance in the rentmin JSON schema (the
	// same document rentmin.ReadProblem accepts). The daemon decodes it
	// with the fuzz-hardened core ingestion: unknown fields and invalid
	// instances are rejected with 400. Exactly one of Problem and
	// ProblemRef must be set.
	Problem json.RawMessage `json:"problem,omitempty"`
	// ProblemRef resolves the problem from the daemon's content-addressed
	// cache instead of an inline document.
	ProblemRef *ProblemRef `json:"problem_ref,omitempty"`
	// Target, when non-nil, overrides the problem's target_throughput.
	Target *int `json:"target,omitempty"`
	// TimeLimitMs bounds the solve wall clock in milliseconds. Zero uses
	// the daemon's default; values above the daemon's maximum are
	// clamped. When the limit stops the search the best allocation found
	// so far is returned with Proven == false.
	TimeLimitMs int64 `json:"time_limit_ms,omitempty"`
	// Stats opts into the solve flight-recorder block on the response
	// (Solution.Stats): trace/worker attribution, the queue-wait vs
	// solve-time split, and the search trajectory. Off by default — the
	// search is traced only when requested.
	Stats bool `json:"stats,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Client.SolveBatch and
// SolveBatchRef write it by hand, as for SolveRequest.
type BatchRequest struct {
	// Problems are the instances to solve, each at its own target.
	// Exactly one of Problems and ProblemRefs must be non-empty.
	Problems []json.RawMessage `json:"problems,omitempty"`
	// ProblemRefs resolves every item from the daemon's content-addressed
	// cache (see ProblemRef); one missing hash fails the whole batch with
	// HTTP 412 before any item is solved.
	ProblemRefs []ProblemRef `json:"problem_refs,omitempty"`
	// TimeLimitMs bounds the whole batch in milliseconds (zero = daemon
	// default, clamped to the daemon maximum). When it expires, finished
	// problems keep their solutions, in-flight searches stop with their
	// best incumbent (Proven == false), and problems that never started
	// report a per-item Error.
	TimeLimitMs int64 `json:"time_limit_ms,omitempty"`
	// Stats opts every item into the per-solve stats block (see
	// SolveRequest.Stats); each Solution carries its own attribution.
	Stats bool `json:"stats,omitempty"`
}

// Solution is one solve outcome: the body of a /v1/solve response and one
// element of a /v1/batch response.
type Solution struct {
	// Allocation is the chosen rental: per-graph throughputs, machine
	// counts per type, and the hourly cost.
	Allocation Allocation `json:"allocation"`
	// Proven reports whether the allocation is proven optimal; false
	// means a deadline stopped the search, or a node LP it could not
	// resolve left the proof open, and the allocation is the best
	// incumbent so far.
	Proven bool `json:"proven"`
	// Bound is the proven lower bound on the optimal cost.
	Bound float64 `json:"bound"`
	// SearchStats is the search effort: nodes, LP solves and pivots,
	// root cuts and presolve reductions (keys nodes, lp_iterations,
	// lp_solves, warm_lp_solves, cuts, cut_rounds, unresolved_lps and
	// presolve).
	rentmin.SearchStats
	// ElapsedMs is the solver wall clock in milliseconds.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Error is set instead of the other fields when a batch item failed
	// or never started before the batch deadline.
	Error string `json:"error,omitempty"`
	// Stats is the opt-in flight-recorder block (SolveRequest.Stats /
	// BatchRequest.Stats); nil unless requested.
	Stats *SolveStats `json:"stats,omitempty"`
}

// SolveStats is the per-solve flight-recorder block a daemon attaches to
// a Solution when the request set Stats: attribution (which trace, which
// worker), the admission-time split (queue wait vs solve), and the
// branch-and-bound search trajectory. The search counters live on the
// enclosing Solution; cold LP solves are LPSolves - WarmLPSolves.
type SolveStats struct {
	// TraceID is the request's trace ID — the value of the
	// X-Rentmin-Trace-Id response header, repeated per batch item so
	// item attribution survives response reshuffling by intermediaries.
	TraceID string `json:"trace_id"`
	// Worker is the remote worker endpoint that answered this solve when
	// it was dispatched across a fleet; "" when solved in-process.
	Worker string `json:"worker,omitempty"`
	// QueueWaitMs is time spent waiting for a solver lease after
	// admission; SolveMs is the solve call itself (for a coordinator:
	// dispatch round trip including the worker's own queue).
	QueueWaitMs float64 `json:"queue_wait_ms"`
	SolveMs     float64 `json:"solve_ms"`
	// Incumbents is the incumbent-improvement trajectory and Rounds the
	// per-round bound trajectory, both present only for in-process
	// solves (a coordinator cannot observe a remote search's interior).
	// Both are capped; TrajectoryTruncated reports a hit cap.
	Incumbents          []IncumbentPoint `json:"incumbents,omitempty"`
	Rounds              []RoundPoint     `json:"rounds,omitempty"`
	TrajectoryTruncated bool             `json:"trajectory_truncated,omitempty"`
	// Phases are the request's decode, queue and solve phases, offsets
	// from its arrival.
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// IncumbentPoint is one incumbent improvement: the search accepted a
// feasible allocation of the given cost at the given offset. Declared
// once, in internal/obs, where the search trace records it.
type IncumbentPoint = obs.IncumbentPoint

// RoundPoint is one branch-and-bound expansion round: the proven bound,
// the incumbent (omitted while none exists — +Inf does not encode in
// JSON), and the search shape after the round. Declared once, in
// internal/obs, where the search trace records it.
type RoundPoint = obs.RoundPoint

// PhaseTiming is one named request phase: its offset from the
// request's arrival and its duration.
type PhaseTiming struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// Allocation is rentmin.Allocation: the wire schema is its JSON encoding
// (graph_throughput, machines, cost), so a received allocation can be fed
// straight back into rentmin.Simulate.
type Allocation = rentmin.Allocation

// BatchResponse is the body of a /v1/batch response; Solutions is in
// input order.
type BatchResponse struct {
	Solutions []Solution `json:"solutions"`
}

// Capacity is the body of a GET /v1/capacity response: the static
// sizing a coordinator needs to dispatch against this daemon. The
// instantaneous queue state lives in Health instead.
type Capacity struct {
	// Workers is the daemon's number of worker leases — the maximum
	// number of solves it runs concurrently, and the in-flight cap a
	// fleet dispatcher applies to this worker.
	Workers int `json:"workers"`
	// QueueCapacity is how many admitted solves may wait beyond the
	// in-flight ones before the daemon answers 429.
	QueueCapacity int `json:"queue_capacity"`
	// MaxBatch is the daemon's per-request batch admission limit.
	MaxBatch int `json:"max_batch"`
}

// Health is the body of a /healthz response.
type Health struct {
	// Status is "ok" while serving and "draining" during shutdown.
	Status string `json:"status"`
	// Workers is the number of worker leases; QueueDepth counts solves
	// waiting for a lease and InFlight the solves holding one.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
}

// RegisterWorkerRequest is the body of POST /v1/workers: a worker daemon
// announcing itself to a coordinator. Registration is idempotent — a
// worker re-announcing refreshes its capacity, and an evicted worker
// rejoins with clean health — so workers simply re-register on an
// interval.
type RegisterWorkerRequest struct {
	// Endpoint is the worker's base URL as the coordinator should dial it
	// (e.g. "http://worker-3:8080").
	Endpoint string `json:"endpoint"`
}

// FleetWorker is one fleet member in a GET /v1/workers response: the
// coordinator's per-worker health snapshot, served as is. Its Name is the
// worker's base URL (wire key "endpoint").
type FleetWorker = rentmin.WorkerStatus

// FleetResponse is the body of GET /v1/workers and of a successful
// POST /v1/workers (the fleet after the registration took effect).
type FleetResponse struct {
	Workers []FleetWorker `json:"workers"`
}

// DebugSolve is one entry of a daemon's solve flight recorder as served
// by GET /debug/solves: a summary of a recent solve (or failed solve)
// with trace/worker attribution and the queue/solve time split. The
// trajectory detail stays in the opt-in response stats block; the ring
// keeps counts only.
type DebugSolve struct {
	TraceID  string    `json:"trace_id"`
	Endpoint string    `json:"endpoint"` // "solve", "batch" or "session"
	Item     int       `json:"item"`     // batch item or event index, -1 for single solves and session creates
	Worker   string    `json:"worker,omitempty"`
	Start    time.Time `json:"start"`

	QueueWaitMs float64 `json:"queue_wait_ms"`
	SolveMs     float64 `json:"solve_ms"`

	Cost   int64  `json:"cost"`
	Proven bool   `json:"proven"`
	Error  string `json:"error,omitempty"`

	// SearchStats is the solve's search effort, under the same keys as
	// on a Solution (presolve nested).
	rentmin.SearchStats

	// Incumbents/Rounds count trajectory points observed (the points
	// themselves are served on the solve response when Stats was set).
	Incumbents int `json:"incumbents,omitempty"`
	Rounds     int `json:"rounds,omitempty"`
}

// DebugSolvesResponse is the body of GET /debug/solves: the most recent
// solves, newest first. Total counts every solve ever recorded,
// including ones the ring has evicted.
type DebugSolvesResponse struct {
	Total  int64        `json:"total"`
	Solves []DebugSolve `json:"solves"`
}

// --- online re-optimization sessions -----------------------------------------

// CreateSessionRequest is the body of POST /v1/sessions: it opens a
// long-lived re-optimization session around one problem instance. The
// daemon solves the instance cold, keeps the optimal allocation and the
// root LP basis, and re-solves warm from them on every streamed event
// (POST /v1/sessions/{id}/events).
type CreateSessionRequest struct {
	// Problem is the instance to adopt, in the rentmin JSON schema. It
	// passes the same fuzz-hardened ingestion and admission bounds as
	// /v1/solve.
	Problem json.RawMessage `json:"problem"`
	// Target, when non-nil, overrides the problem's target_throughput.
	Target *int `json:"target,omitempty"`
	// TimeLimitMs bounds the initial cold solve in milliseconds (zero =
	// daemon default, clamped to the daemon maximum). The session does
	// not keep it: every events request brings its own limit (see
	// SessionEventsRequest.TimeLimitMs).
	TimeLimitMs int64 `json:"time_limit_ms,omitempty"`
}

// SessionEvent is one streamed mutation in a POST /v1/sessions/{id}/events
// request: set Kind plus the fields that kind names. The operand fields
// are pointers so zero values (machine type 0, target 0, price 0, graph
// index 0) stay distinguishable from an omitted field — an event missing
// its operand is rejected per-event, not defaulted.
type SessionEvent struct {
	// Kind is one of "recipe_arrival", "recipe_departure",
	// "target_change", "price_change", "outage", "restore".
	Kind string `json:"kind"`
	// Graph is the arriving recipe graph (recipe_arrival), in the
	// problem schema's graph form: {"name", "tasks", "edges"}.
	Graph json.RawMessage `json:"graph,omitempty"`
	// GraphIndex names the departing graph by its index in the session's
	// current problem (recipe_departure).
	GraphIndex *int `json:"graph_index,omitempty"`
	// Target is the new fleet-wide target throughput (target_change).
	Target *int `json:"target,omitempty"`
	// Type is the machine type the event acts on (price_change, outage,
	// restore).
	Type *int `json:"type,omitempty"`
	// Price is the type's new hourly cost (price_change).
	Price *int `json:"price,omitempty"`
}

// SessionEventsRequest is the body of POST /v1/sessions/{id}/events: an
// ordered list of events, applied one at a time. Each event that commits
// triggers one re-solve; an invalid event yields a per-event error and
// leaves the session unchanged, and later events still apply.
type SessionEventsRequest struct {
	Events []SessionEvent `json:"events"`
	// TimeLimitMs bounds each individual event re-solve in milliseconds
	// (zero = daemon default, clamped to the daemon maximum).
	TimeLimitMs int64 `json:"time_limit_ms,omitempty"`
}

// SessionResolve is the outcome of applying one session event: one
// element of a SessionEventsResponse, and the initial solve on a
// CreateSessionResponse.
type SessionResolve struct {
	// Seq is the session-wide event sequence number (0 = the initial
	// solve at creation).
	Seq int `json:"seq"`
	// Kind echoes the event kind ("create" for the initial solve).
	Kind string `json:"kind"`
	// Status is "optimal", "feasible" (a limit stopped the re-solve with
	// its best incumbent, unproven), or "infeasible" (every machine type
	// needed is offline).
	Status string `json:"status,omitempty"`
	// Allocation is the committed allocation in the full problem's shape
	// (offline types and their graphs pinned to zero); nil on a
	// per-event error.
	Allocation *Allocation `json:"allocation,omitempty"`
	// Warm reports whether the re-solve was seeded from the previous
	// optimum (incumbent cutoff + structural root basis); false means it
	// ran cold. RootLPWarm additionally reports that the root LP started
	// from the structural basis and ran no root cuts (false when
	// presolve settled the re-solve without a root LP, or the basis was
	// rejected and the root solved cold).
	Warm       bool `json:"warm"`
	RootLPWarm bool `json:"root_lp_warm,omitempty"`
	// Churn counts machine moves: the L1 distance between the previous
	// and new per-type machine counts.
	Churn int `json:"churn"`
	// SolveMs is the re-solve wall clock and SearchStats its search
	// effort, under the same keys as on a Solution.
	SolveMs float64 `json:"solve_ms"`
	rentmin.SearchStats
	// Error is set instead of the other fields when this event was
	// rejected (the session state is unchanged).
	Error string `json:"error,omitempty"`
}

// SessionState is a point-in-time session snapshot: the body of
// GET /v1/sessions/{id} and the closing field of every session response.
// ID is the session's identifier (path parameter of the session
// endpoints); the rest is the daemon's own snapshot.
type SessionState struct {
	ID string `json:"id"`
	rentmin.SessionState
}

// CreateSessionResponse is the body of a successful POST /v1/sessions.
type CreateSessionResponse struct {
	ID     string         `json:"id"`
	Result SessionResolve `json:"result"`
	State  SessionState   `json:"state"`
}

// SessionEventsResponse is the body of a POST /v1/sessions/{id}/events
// response: per-event outcomes in input order, then the state after the
// last event.
type SessionEventsResponse struct {
	Results []SessionResolve `json:"results"`
	State   SessionState     `json:"state"`
}

// CloseSessionResponse is the body of DELETE /v1/sessions/{id}.
type CloseSessionResponse struct {
	ID string `json:"id"`
	// Events counts the events the session committed over its life.
	Events int `json:"events"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
