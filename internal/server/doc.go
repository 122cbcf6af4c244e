// Package server implements the rentmind batch-solve service: the HTTP
// handlers, admission control, bounded work queue and metrics behind
// cmd/rentmind. It turns the library's exact solver into an online
// endpoint serving many concurrent clients over one rentmin.SolverPool.
//
// The operator-facing reference — every route and /metrics series with
// its semantics, the admission limits and their flags, and the
// 422/429/Retry-After contract — lives in docs/metrics.md at the
// repository root; the layer map is in ARCHITECTURE.md. This doc
// describes the request lifecycle the code implements.
//
// # Endpoints
//
//	POST   /v1/solve                 one problem -> client.Solution
//	POST   /v1/batch                 many problems -> client.BatchResponse (input order)
//	POST   /v1/sessions              open a re-optimization session
//	POST   /v1/sessions/{id}/events  apply events, each re-solved warm
//	GET    /v1/sessions/{id}         session snapshot
//	DELETE /v1/sessions/{id}         close a session
//	PUT    /v1/problems/{hash}       upload a document to the problem cache
//	POST   /v1/workers               register a fleet worker (coordinator only)
//	GET    /v1/workers               list the fleet (coordinator only)
//	DELETE /v1/workers?endpoint=     remove a fleet worker (coordinator only)
//	GET    /v1/capacity              static sizing (503 while draining)
//	GET    /healthz                  liveness + queue gauges (503 while draining)
//	GET    /metrics                  Prometheus-style text metrics
//	GET    /debug/solves             the solve flight recorder, newest first
//	GET    /debug/pprof/             runtime profiles (only with Config.Pprof)
//
// The wire types live in package client (rentmin/client) so external
// programs can use them; the server importing them back keeps the two
// sides in lock step. Problem documents are decoded by core.ParseProblem
// — the same fuzz-hardened, unknown-field-rejecting ingestion the CLI
// uses through core.ReadProblem — so the network surface adds no new
// parsing code. Every request body and document must end after its JSON
// value: anything but whitespace after it is a 400.
//
// # Request lifecycle
//
// The solving endpoints (/v1/solve, /v1/batch and the two session
// POSTs) share one path, and each step of it is one routine:
//
//  1. The prologue: a draining server answers 503, the trace ID is
//     adopted or minted, the envelope is decoded (400 on any failure)
//     and time_limit_ms is resolved (400 when negative).
//  2. The intake takes in each problem, inline or by problem_ref (400,
//     or 412 for a hash the cache does not hold), applies the target
//     override and checks the admission bounds (graphs, machine types,
//     total tasks, target). An oversize problem is rejected with 422
//     before any solver work: branch-and-bound cost grows
//     superlinearly with instance size.
//  3. The queue: a request holds one of Workers+QueueDepth slots until
//     it is answered. Beyond them the server answers 429 with a
//     Retry-After hint instead of accumulating latency.
//  4. The runner: each problem waits for one of Workers leases, solves
//     holding it and releases it when the solve returns, before the
//     response is written. /v1/solve runs its problem as a batch of one
//     on the handler goroutine; /v1/batch runs its problems in index
//     order on up to Workers dispatcher goroutines, so its fan-out
//     shares solver capacity fairly with every other request. A waiter
//     gives up when its client disconnects or the server drains (503).
//
// A session request instead holds its slot and one lease until it is
// answered: its re-solves run in-process, one after another, on the
// session's warm state. Leases bound the solves submitted to the pool at
// once. On a local pool, or a coordinator whose Workers is its fleet's
// summed capacity, a lease holder's solve starts at once. An elastic
// coordinator (Config.WorkerDialer) has elasticLeases leases, more than
// its fleet's seats, so a lease holder may still wait inside the pool
// for a worker seat.
//
// # Cancellation
//
// Each solve runs under a context derived from the HTTP request context
// with the time limit attached (clamped to MaxTimeLimit), so client
// disconnects and deadline expiry cancel the branch-and-bound search
// itself, between nodes (see milp.SolveContext). The context is the only
// bound on a solve: handlers pass no solve options. A /v1/solve deadline
// starts when its lease is granted. A batch's one deadline starts before
// its items queue: finished items keep their solutions, in-flight items
// stop best-so-far, never-started items report a per-item error. A
// deadline that stops a search returns the best incumbent found so far
// with Proven == false; 504 is returned only when no feasible allocation
// existed yet.
//
// # Shutdown and coordinator mode
//
// BeginDrain flips /healthz to 503, makes new requests fail fast with
// 503 and wakes every request still waiting for a lease with the same
// 503; in-flight solves finish. The owner then calls
// http.Server.Shutdown and Server.Close, as cmd/rentmind does on
// SIGINT/SIGTERM. Config.SolverPool swaps the in-process pool for a
// pre-built one, in practice the remote-backed fleet of
// rentmin/client.NewFleet (`rentmind -workers-endpoints`): the request
// path is unchanged, and every solve is dispatched to a worker daemon.
// See docs/distributed.md.
package server
