package server

import (
	"context"
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
// failed) solve, in the form GET /debug/solves serves it.
func solveRecord(traceID, endpoint string, item int, start time.Time, res itemResult) client.DebugSolve {
	rec := client.DebugSolve{
		TraceID:     traceID,
		Endpoint:    endpoint,
		Item:        item,
		Worker:      res.sol.Worker,
		Start:       start,
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
	incs, rounds, _ := res.tr.Trajectory()
	rec.Incumbents = len(incs)
	rec.Rounds = len(rounds)
	return rec
}

// solveStats renders the opt-in response stats block for one solve from
// the trace that observed it: its phases and, for a local solve, the
// search trajectory, all offsets from the trace's start.
func solveStats(traceID string, res itemResult) *client.SolveStats {
	out := &client.SolveStats{
		TraceID:     traceID,
		Worker:      res.sol.Worker,
		QueueWaitMs: ms(res.queueWait),
		SolveMs:     ms(res.dur),
	}
	out.Incumbents, out.Rounds, out.TrajectoryTruncated = res.tr.Trajectory()
	for _, sp := range res.tr.Spans() {
		out.Phases = append(out.Phases, client.PhaseTiming{Name: sp.Name, StartMs: ms(sp.Start), DurMs: ms(sp.Dur)})
	}
	return out
}

// recordSolve folds one finished solve into every observability surface:
// the flight-recorder ring, the queue-wait histogram, and a structured
// log line carrying the trace ID so one grep follows a solve across the
// coordinator's and the worker's logs.
func (s *Server) recordSolve(rec client.DebugSolve) {
	s.rec.Add(rec)
	s.met.recordQueueWait(rec.QueueWaitMs)
	attrs := []interface{}{
		"trace_id", rec.TraceID,
		"endpoint", rec.Endpoint,
		"item", rec.Item,
		"worker", rec.Worker,
		"queue_wait_ms", rec.QueueWaitMs,
		"solve_ms", rec.SolveMs,
		"cost", rec.Cost,
		"proven", rec.Proven,
	}
	if rec.Error != "" {
		s.log.Warn("solve failed", append(attrs, "err", rec.Error)...)
		return
	}
	s.log.Info("solve finished", attrs...)
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
