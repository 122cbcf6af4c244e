// Package server implements the rentmind batch-solve service: the HTTP
// handlers, admission control, bounded work queue and metrics behind
// cmd/rentmind. It turns the library's exact solver into an online
// endpoint serving many concurrent clients, each solve bounded by one of
// the daemon's worker leases.
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
// sides in lock step. Problem documents are decoded by the decoders of
// core.ParseProblem — the same fuzz-hardened, unknown-field-rejecting
// ingestion the CLI uses through core.ReadProblem — so the network
// surface adds no new document parser. Every request body and document
// must end after its JSON value: anything but whitespace after it is a
// 400.
//
// # Request lifecycle
//
// The solving endpoints (/v1/solve, /v1/batch and the two session
// POSTs) share one path, and each step of it is one routine:
//
//  1. The prologue: a draining server answers 503, the trace ID is
//     adopted or minted, the envelope is decoded (400 on any failure)
//     and time_limit_ms is resolved (400 when negative). A /v1/solve or
//     /v1/batch body is read whole into one buffer sized from
//     Content-Length and scanned once: a body in the shape client
//     writes has its envelope and every inline document decoded in that
//     one pass (envelope.go). Any other body goes whole to encoding/json
//     with unknown fields disallowed, which words every 400 and leaves
//     each document for the intake to parse, so both paths answer a
//     body alike (FuzzEnvelope). The session endpoints decode with
//     encoding/json alone.
//  2. The intake takes in each problem, inline (validating a document
//     the scan decoded, parsing one it did not) or by problem_ref (400,
//     or 412 for a hash the cache does not hold), applies the target
//     override and checks the admission bounds (graphs, machine types,
//     total tasks, target). An oversize problem is rejected with 422
//     before any solver work: branch-and-bound cost grows
//     superlinearly with instance size.
//  3. The queue: a request holds one of Workers+QueueDepth slots until
//     it is answered. Beyond them the server answers 429 with a
//     Retry-After hint instead of accumulating latency.
//  4. The runner: each solve waits for one of Workers leases, runs on
//     the goroutine holding it and releases it when the solve returns,
//     before the response is written. /v1/solve and a session create run
//     their one solve on the handler goroutine; /v1/batch runs its
//     problems in index order on up to Workers dispatcher goroutines, so
//     its fan-out shares solver capacity fairly with every other request.
//     An events request runs its events in order, each re-solve under a
//     lease of its own; an event that fails validation, the session's
//     own operand checks included, takes none. A
//     waiter gives up when its client disconnects or the server drains: a
//     request of one solve answers 503, a batch item or an event reports
//     its own error.
//
// The runner times and records every solve, whether or not its lease was
// granted: it leaves one flight-recorder record, one queue-wait sample
// and one log line, and for a request with stats it derives the block's
// queue and solve phases from the same clock readings. Leases
// are the one bound on concurrent solves: a lease holder's solve starts
// at once, except on an elastic coordinator (Config.WorkerDialer), whose
// elasticLeases (256) outnumber its fleet's seats, so a lease holder may
// wait there for a worker seat. Session solves are not dispatched: a
// coordinator runs a session's create and re-solves in process, under
// the same elasticLeases and not under fleet seats, so on an elastic
// coordinator up to 256 of them run at once on its own cores.
//
// # Cancellation
//
// Each solve runs under a context derived from the HTTP request context
// with the time limit attached (clamped to MaxTimeLimit), so client
// disconnects and deadline expiry cancel the branch-and-bound search
// itself, between nodes (see milp.SolveContext). The context is the only
// bound on a solve: handlers pass no solve options. The deadline of a
// /v1/solve, a session create and each session re-solve starts when its
// lease is granted. A batch's one deadline starts before its items
// queue: finished items keep their solutions, in-flight items stop
// best-so-far, never-started items report a per-item error. A deadline
// that stops a search returns the best incumbent found so far with
// Proven == false; 504 is returned only when no feasible allocation
// existed yet.
//
// # Shutdown and coordinator mode
//
// BeginDrain flips /healthz to 503, makes new requests fail fast with
// 503 and wakes every solve still waiting for a lease, which fails as
// above; in-flight solves finish. The owner then calls
// http.Server.Shutdown and Server.Close, as cmd/rentmind does on
// SIGINT/SIGTERM. Config.SolverPool makes the daemon a coordinator over
// a remote-backed fleet, in practice that of rentmin/client.NewFleet
// (`rentmind -workers-endpoints`): the request path is unchanged, and
// every leased /v1/solve and /v1/batch solve is dispatched to a worker
// daemon.
// See docs/distributed.md.
package server
