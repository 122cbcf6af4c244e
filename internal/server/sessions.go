package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/obs"
)

// The /v1/sessions surface: long-lived online re-optimization sessions.
// A session owns a mutable problem plus its current optimal allocation;
// every streamed event (recipe arrival/departure, target change, price
// change, outage, restore) is applied as a problem delta and re-solved
// WARM from the previous optimum — the committed allocation seeds the
// incumbent cutoff and the previous root LP basis seeds the root
// relaxation — with a transparent cold fallback (see rentmin.Session and
// docs/sessions.md).
//
// Sessions live in a bounded table with idle eviction. Event re-solves
// run in-process on the daemon (never dispatched across a coordinator's
// fleet: the warm state is local), but each request takes an admission
// slot and a worker lease like any /v1/solve, so sessions share capacity
// fairly with one-shot requests.

// sessionEntry is one table slot. The entry-level fields (lastUsed,
// inFlight, events) are guarded by the table mutex; the session itself
// has its own lock and serializes concurrent Apply calls.
type sessionEntry struct {
	id   string
	sess *rentmin.Session // nil while the creating request is still solving

	created  time.Time
	lastUsed time.Time
	inFlight int // requests currently using the entry; eviction skips > 0
	events   int // events committed over the session's life
}

// sessionTable is the daemon's bounded session registry.
type sessionTable struct {
	mu      sync.Mutex
	m       map[string]*sessionEntry
	max     int
	created int64
	evicted int64
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{m: make(map[string]*sessionEntry), max: max}
}

// errSessionTableFull reports a create rejected by the MaxSessions bound.
var errSessionTableFull = errors.New("session table is full")

// reserve claims a table slot under the capacity bound before the
// initial solve runs, so two racing creates cannot overshoot MaxSessions
// and a failed create never leaves a half-built entry behind (the caller
// either fills the entry or abandons it). The reserved entry starts with
// inFlight 1, which also keeps the eviction sweep away until the
// creating request releases it.
func (t *sessionTable) reserve(id string) (*sessionEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= t.max {
		return nil, errSessionTableFull
	}
	now := time.Now()
	e := &sessionEntry{id: id, created: now, lastUsed: now, inFlight: 1}
	t.m[id] = e
	t.created++
	return e, nil
}

// abandon removes a reserved entry whose initial solve failed.
func (t *sessionTable) abandon(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
	t.created-- // the session never existed from the client's view
}

// retain looks an entry up and marks it busy; release undoes that and
// refreshes the idle clock.
func (t *sessionTable) retain(id string) (*sessionEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[id]
	if !ok || e.sess == nil {
		return nil, false
	}
	e.inFlight++
	e.lastUsed = time.Now()
	return e, true
}

func (t *sessionTable) release(e *sessionEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.inFlight--
	e.lastUsed = time.Now()
}

// touch bumps the idle clock (snapshot reads keep a session alive).
func (t *sessionTable) touch(e *sessionEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.lastUsed = time.Now()
}

// addEvents accumulates the entry's committed-event count.
func (t *sessionTable) addEvents(e *sessionEntry, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.events += n
}

// remove deletes an entry by id (DELETE /v1/sessions/{id}).
func (t *sessionTable) remove(id string) (*sessionEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[id]
	if !ok || e.sess == nil {
		return nil, false
	}
	delete(t.m, id)
	return e, true
}

// sweepIdle removes every evictable entry: idle past the deadline and
// not in use. An entry with inFlight > 0 is never evicted — the request
// holding it would otherwise apply events to a closed session — it just
// comes up again on a later sweep.
func (t *sessionTable) sweepIdle(idle time.Duration) []*sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*sessionEntry
	now := time.Now()
	for id, e := range t.m {
		if e.sess == nil || e.inFlight > 0 || now.Sub(e.lastUsed) < idle {
			continue
		}
		delete(t.m, id)
		t.evicted++
		out = append(out, e)
	}
	return out
}

// drainAll empties the table at shutdown.
func (t *sessionTable) drainAll() []*sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*sessionEntry, 0, len(t.m))
	for id, e := range t.m {
		delete(t.m, id)
		out = append(out, e)
	}
	return out
}

// stats snapshots the table for /metrics.
func (t *sessionTable) stats() (active int, created, evicted int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m), t.created, t.evicted
}

// sessionEvictLoop is the idle-eviction sweep, modeled on healthLoop: it
// ticks at a quarter of the idle timeout, closes sessions nobody has
// touched, and on drain closes everything and exits (Close waits for it).
func (s *Server) sessionEvictLoop() {
	defer close(s.sessDone)
	interval := s.cfg.SessionIdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.drain:
			for _, e := range s.sessions.drainAll() {
				if e.sess != nil {
					e.sess.Close()
				}
			}
			return
		case <-t.C:
			for _, e := range s.sessions.sweepIdle(s.cfg.SessionIdleTimeout) {
				e.sess.Close()
				s.log.Info("session evicted idle", "session", e.id, "events", e.events,
					"idle", s.cfg.SessionIdleTimeout.String())
			}
		}
	}
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req client.CreateSessionRequest
	rq, ok := s.prologue(w, r, &req, &req.TimeLimitMs)
	if !ok {
		return
	}
	p, ok := s.intake(w, req.Problem, nil, req.Target, -1)
	if !ok {
		return
	}

	id := obs.NewTraceID()
	entry, err := s.sessions.reserve(id)
	if err != nil {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session table is full (%d open sessions); delete one or retry later", s.cfg.MaxSessions))
		return
	}
	release, ok := s.acquire(w, r)
	if !ok {
		s.sessions.abandon(id)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(rq.ctx, rq.limit)
	defer cancel()
	sess, res, err := rentmin.NewSession(ctx, p, nil)
	if err != nil {
		s.sessions.abandon(id)
		if r.Context().Err() != nil {
			s.writeError(w, http.StatusServiceUnavailable, "client went away")
			return
		}
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	s.sessions.mu.Lock()
	entry.sess = sess
	s.sessions.mu.Unlock()
	s.sessions.release(entry)
	s.met.recordSessionResolve(res.Warm, ms(res.SolveTime), res.Churn, fleetSize(res.Alloc.Machines))
	s.log.Info("session created", "trace_id", rq.traceID, "session", id,
		"cost", res.Alloc.Cost, "solve_ms", ms(res.SolveTime))
	s.writeJSON(w, http.StatusOK, client.CreateSessionResponse{
		ID:     id,
		Result: wireSessionResolve(res),
		State:  wireSessionState(id, sess.State()),
	})
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	var req client.SessionEventsRequest
	rq, ok := s.prologue(w, r, &req, &req.TimeLimitMs)
	if !ok {
		return
	}
	if len(req.Events) == 0 {
		s.writeError(w, http.StatusBadRequest, "request has no events")
		return
	}
	if len(req.Events) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("request has %d events, admission limit is %d", len(req.Events), s.cfg.MaxBatch))
		return
	}
	entry, ok := s.sessions.retain(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (expired, deleted, or never created)")
		return
	}
	defer s.sessions.release(entry)
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()

	results := make([]client.SessionResolve, len(req.Events))
	applied := 0
	for i, wev := range req.Events {
		ev, err := s.sessionEvent(entry.sess, wev)
		if err != nil {
			results[i] = client.SessionResolve{Kind: wev.Kind, Error: err.Error()}
			continue
		}
		ctx, cancel := context.WithTimeout(rq.ctx, rq.limit)
		res, err := entry.sess.Apply(ctx, ev)
		cancel()
		if err != nil {
			results[i] = client.SessionResolve{Kind: wev.Kind, Error: sessionItemError(err)}
			if r.Context().Err() != nil {
				// The client is gone: later events would burn solver time
				// nobody reads. The applied prefix stays committed.
				for j := i + 1; j < len(results); j++ {
					results[j] = client.SessionResolve{Kind: req.Events[j].Kind, Error: "not applied: request cancelled"}
				}
				break
			}
			continue
		}
		applied++
		s.met.recordSessionResolve(res.Warm, ms(res.SolveTime), res.Churn, fleetSize(res.Alloc.Machines))
		s.log.Info("session event applied", "trace_id", rq.traceID, "session", entry.id,
			"seq", res.Seq, "kind", string(res.Kind), "status", res.Status, "warm", res.Warm,
			"churn", res.Churn, "cost", res.Alloc.Cost, "solve_ms", ms(res.SolveTime))
		results[i] = wireSessionResolve(res)
	}
	s.sessions.addEvents(entry, applied)
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "client went away")
		return
	}
	s.writeJSON(w, http.StatusOK, client.SessionEventsResponse{
		Results: results,
		State:   wireSessionState(entry.id, entry.sess.State()),
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.sessions.retain(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (expired, deleted, or never created)")
		return
	}
	defer s.sessions.release(entry)
	s.writeJSON(w, http.StatusOK, wireSessionState(entry.id, entry.sess.State()))
}

// handleSessionDelete closes a session explicitly. It works during drain
// — deleting is cleanup, not new work.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.sessions.remove(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (expired, deleted, or never created)")
		return
	}
	entry.sess.Close()
	s.log.Info("session deleted", "session", entry.id, "events", entry.events)
	s.writeJSON(w, http.StatusOK, client.CloseSessionResponse{ID: entry.id, Events: entry.events})
}

// --- wire conversion ---------------------------------------------------------

// sessionEvent converts one wire event into the typed session event,
// enforcing per-event admission: an arrival may not grow the problem past
// the daemon's graph/task bounds and a target change may not exceed the
// target bound — the same limits /v1/solve admission applies, checked
// against the session's current size.
func (s *Server) sessionEvent(sess *rentmin.Session, wev client.SessionEvent) (rentmin.SessionEvent, error) {
	ev := rentmin.SessionEvent{Kind: rentmin.SessionEventKind(wev.Kind)}
	switch ev.Kind {
	case rentmin.SessionRecipeArrival:
		if len(wev.Graph) == 0 {
			return ev, errors.New("recipe_arrival event is missing its graph")
		}
		var g rentmin.Graph
		dec := json.NewDecoder(bytes.NewReader(wev.Graph))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			return ev, fmt.Errorf("decode graph: %v", err)
		}
		st := sess.State()
		if st.Graphs+1 > s.cfg.MaxGraphs {
			return ev, fmt.Errorf("arrival would grow the session to %d recipe graphs, admission limit is %d", st.Graphs+1, s.cfg.MaxGraphs)
		}
		if st.Tasks+len(g.Tasks) > s.cfg.MaxTasks {
			return ev, fmt.Errorf("arrival would grow the session to %d tasks, admission limit is %d", st.Tasks+len(g.Tasks), s.cfg.MaxTasks)
		}
		ev.Graph = &g
	case rentmin.SessionRecipeDeparture:
		if wev.GraphIndex == nil {
			return ev, errors.New("recipe_departure event is missing graph_index")
		}
		ev.GraphIndex = *wev.GraphIndex
	case rentmin.SessionTargetChange:
		if wev.Target == nil {
			return ev, errors.New("target_change event is missing target")
		}
		if *wev.Target > s.cfg.MaxTarget {
			return ev, fmt.Errorf("target throughput %d exceeds admission limit %d", *wev.Target, s.cfg.MaxTarget)
		}
		ev.Target = *wev.Target
	case rentmin.SessionPriceChange:
		if wev.Type == nil || wev.Price == nil {
			return ev, errors.New("price_change event needs both type and price")
		}
		ev.Type, ev.Price = *wev.Type, *wev.Price
	case rentmin.SessionOutage, rentmin.SessionRestore:
		if wev.Type == nil {
			return ev, fmt.Errorf("%s event is missing type", wev.Kind)
		}
		ev.Type = *wev.Type
	default:
		return ev, fmt.Errorf("unknown event kind %q", wev.Kind)
	}
	return ev, nil
}

// sessionItemError renders a per-event Apply failure.
func sessionItemError(err error) string {
	switch {
	case errors.Is(err, rentmin.ErrSessionClosed):
		return "not applied: session closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "not applied: re-solve deadline exceeded before it started"
	case errors.Is(err, context.Canceled):
		return "not applied: request cancelled"
	}
	return err.Error()
}

func wireSessionResolve(res *rentmin.SessionResolve) client.SessionResolve {
	alloc := res.Alloc.Clone()
	return client.SessionResolve{
		Seq:         res.Seq,
		Kind:        string(res.Kind),
		Status:      res.Status,
		Allocation:  &alloc,
		Warm:        res.Warm,
		RootLPWarm:  res.RootLPWarm,
		Churn:       res.Churn,
		SolveMs:     ms(res.SolveTime),
		SearchStats: res.SearchStats,
	}
}

func wireSessionState(id string, st rentmin.SessionState) client.SessionState {
	ratio := 0.0
	if st.ChurnBase > 0 {
		ratio = float64(st.ChurnMoves) / float64(st.ChurnBase)
	}
	return client.SessionState{
		ID:           id,
		Events:       st.Events,
		Graphs:       st.Graphs,
		Tasks:        st.Tasks,
		Target:       st.Target,
		Feasible:     st.Feasible,
		Cost:         st.Cost,
		Allocation:   st.Alloc,
		Offline:      st.Offline,
		WarmResolves: st.WarmResolves,
		ColdResolves: st.ColdResolves,
		ChurnMoves:   st.ChurnMoves,
		ChurnRatio:   ratio,
	}
}

// fleetSize sums a committed allocation's machine counts — the
// denominator unit of the churn ratio.
func fleetSize(machines []int) int {
	n := 0
	for _, m := range machines {
		n += m
	}
	return n
}
