// Package server implements the rentmind batch-solve service: the HTTP
// handlers, admission control, bounded work queue and metrics behind
// cmd/rentmind. It turns the library's exact solver into an online
// endpoint serving many concurrent clients over one rentmin.SolverPool.
//
// The operator-facing reference — every /metrics series with its
// semantics, the admission limits and their flags, and the 422/429/
// Retry-After contract — lives in docs/metrics.md at the repository
// root; the layer map is in ARCHITECTURE.md. This doc describes the
// request lifecycle the code implements.
//
// # Endpoints
//
//	POST /v1/solve  one problem  -> client.Solution
//	POST /v1/batch  many problems -> client.BatchResponse (input order)
//	GET  /healthz   liveness + queue gauges (503 while draining)
//	GET  /metrics   Prometheus-style text metrics
//
// The wire types live in package client (rentmin/client) so external
// programs can use them; the server importing them back keeps the two
// sides in lock step. Problem documents are decoded by core.ReadProblem
// — the same fuzz-hardened, unknown-field-rejecting ingestion the CLI
// uses — so the network surface adds no new parsing code.
//
// # Request lifecycle
//
// A request passes three gates before it reaches the solver:
//
//  1. Admission control: problems above the configured size bounds
//     (graphs, machine types, total tasks, target, batch length) are
//     rejected with 422 before any solver work happens. The bounds exist
//     because branch-and-bound cost grows superlinearly with instance
//     size — an oversize problem would occupy a worker for minutes.
//  2. Bounded queue: at most Workers+QueueDepth requests are outstanding.
//     Beyond that the server answers 429 with a Retry-After hint instead
//     of accumulating unbounded latency.
//  3. Worker lease: every individual solve takes a lease before touching
//     the shared rentmin.SolverPool, and only Workers leases exist — a
//     /v1/batch request takes one lease per problem (claimed in index
//     order), so its fan-out shares solver capacity fairly with every
//     other request instead of flooding the pool. A lease holder's pool
//     submission therefore never queues: holding a lease means running.
//     A waiter gives up when its client disconnects or the server starts
//     draining.
//
// # Cancellation
//
// Each admitted request is solved under a context derived from the HTTP
// request context with the per-request time limit attached (clamped to
// MaxTimeLimit). Client disconnects and deadline expiry therefore cancel
// the branch-and-bound search itself, between nodes (see
// milp.SolveContext) — rather than merely abandoning the response. A deadline that stops a
// search returns the best incumbent found so far with Proven == false,
// exactly like rentmin.SolveOptions.TimeLimit; 504 is returned only when
// no feasible allocation existed yet. Batch requests share one deadline:
// finished items keep their solutions, in-flight items stop best-so-far,
// never-started items report a per-item error.
//
// # Shutdown
//
// BeginDrain flips /healthz to 503 (so load balancers stop routing new
// traffic), makes new requests fail fast with 503, and wakes every
// request still waiting in the queue with the same 503. In-flight solves
// are not interrupted; the owner is expected to call
// http.Server.Shutdown to let them finish, then Server.Close to release
// the solver pool. cmd/rentmind wires exactly that sequence to
// SIGINT/SIGTERM.
//
// # Coordinator mode
//
// Config.SolverPool swaps the in-process pool for a pre-built one —
// in practice the remote-backed fleet from rentmin/client.NewFleet
// (wired by `rentmind -workers-endpoints`). The whole request path is
// unchanged: admission, slots and leases work as above with Workers
// defaulting to the fleet's summed capacity, and every solve a lease
// holder submits is dispatched to a remote worker daemon instead of a
// local goroutine. GET /v1/capacity is what coordinators use to
// discover a worker's in-flight cap; /metrics additionally exports
// per-worker health gauges. See docs/distributed.md for the topology
// and failure semantics.
package server
