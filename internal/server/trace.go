package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"rentmin/client"
	"rentmin/internal/obs"
)

// traceContext establishes the request's trace ID: a valid incoming
// X-Rentmin-Trace-Id is adopted (the caller — often a coordinator — is
// correlating processes), anything else is replaced with a fresh ID. The
// ID is echoed on the response header and threaded into the returned
// context, where the dispatch client picks it up to stamp onto remote
// solves — that hop is what makes one ID name a solve fleet-wide.
func (s *Server) traceContext(w http.ResponseWriter, r *http.Request) (context.Context, string) {
	id := r.Header.Get(client.TraceHeader)
	if !obs.ValidTraceID(id) {
		id = obs.NewTraceID()
	}
	w.Header().Set(client.TraceHeader, id)
	return obs.WithTraceID(r.Context(), id), id
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// solveRecord assembles the flight-recorder entry of a finished (or
// failed) solve of rq, in the form GET /debug/solves serves it.
func solveRecord(rq *request, endpoint string, item int, res itemResult) client.DebugSolve {
	rec := client.DebugSolve{
		TraceID:     rq.traceID,
		Endpoint:    endpoint,
		Item:        item,
		Worker:      res.sol.Worker,
		Start:       rq.start,
		QueueWaitMs: ms(res.queueWait),
		SolveMs:     ms(res.dur),
		Proven:      res.sol.Proven,
		SearchStats: res.sol.SearchStats,
	}
	if res.sol.Alloc.GraphThroughput != nil {
		rec.Cost = res.sol.Alloc.Cost
	}
	if res.err != nil {
		rec.Error = res.err.Error()
	}
	rec.Incumbents = len(res.incumbents)
	rec.Rounds = len(res.rounds)
	return rec
}

// solveStats renders the opt-in response stats block for one solve of
// rq: its decode, queue and solve phases, derived from the durations run
// measured, and, for a local solve, the search trajectory, all offsets
// from the request's arrival.
func solveStats(rq *request, res itemResult) *client.SolveStats {
	queued := res.queued.Sub(rq.start)
	out := &client.SolveStats{
		TraceID:     rq.traceID,
		Worker:      res.sol.Worker,
		QueueWaitMs: ms(res.queueWait),
		SolveMs:     ms(res.dur),
		Phases: []client.PhaseTiming{
			{Name: "decode", DurMs: ms(rq.decoded.Sub(rq.start))},
			{Name: "queue", StartMs: ms(queued), DurMs: ms(res.queueWait)},
			{Name: "solve", StartMs: ms(queued + res.queueWait), DurMs: ms(res.dur)},
		},
	}
	out.Incumbents, out.Rounds, out.TrajectoryTruncated = res.incumbents, res.rounds, res.truncated
	return out
}

// recordSolve folds one finished solve into every observability surface:
// the flight-recorder ring, the queue-wait histogram, and a structured
// log line carrying the trace ID so one grep follows a solve across the
// coordinator's and the worker's logs. attrs are further attributes for
// that line (a session re-solve names its session). The attributes are
// typed, so a disabled level costs nothing and an enabled one boxes no
// number.
func (s *Server) recordSolve(rec client.DebugSolve, attrs ...slog.Attr) {
	s.rec.Add(rec)
	s.met.recordQueueWait(rec.QueueWaitMs)
	level, msg := slog.LevelInfo, "solve finished"
	if rec.Error != "" {
		level, msg = slog.LevelWarn, "solve failed"
	}
	line := append(make([]slog.Attr, 0, 10),
		slog.String("trace_id", rec.TraceID),
		slog.String("endpoint", rec.Endpoint),
		slog.Int("item", rec.Item),
		slog.String("worker", rec.Worker),
		slog.Float64("queue_wait_ms", rec.QueueWaitMs),
		slog.Float64("solve_ms", rec.SolveMs),
		slog.Int64("cost", rec.Cost),
		slog.Bool("proven", rec.Proven),
	)
	line = append(line, attrs...)
	if rec.Error != "" {
		line = append(line, slog.String("err", rec.Error))
	}
	s.log.LogAttrs(context.Background(), level, msg, line...)
}

// handleDebugSolves serves the flight recorder: the last N solve
// summaries, newest first (?n= bounds the count; 0 or absent returns
// everything the ring retains).
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = v
	}
	s.writeJSON(w, http.StatusOK, client.DebugSolvesResponse{Total: s.rec.Total(), Solves: s.rec.Last(n)})
}
