package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
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
// incumbent cutoff and the root relaxation starts from the recipe
// model's structural basis — with a transparent cold fallback (see
// rentmin.Session and docs/sessions.md).
//
// Sessions live in a bounded table with idle eviction. Event re-solves
// run in-process on the daemon (never dispatched across a coordinator's
// fleet: the warm state is local), but they take the request path of
// /v1/solve and /v1/batch: each request takes an admission slot, and each
// re-solve a worker lease of its own through run, so sessions share
// capacity fairly with one-shot requests.

// sessionEntry is one table slot. The entry-level fields (sess, lastUsed,
// inFlight) are guarded by the table mutex; the session itself has its
// own lock and serializes concurrent Apply calls.
type sessionEntry struct {
	id   string
	sess *rentmin.Session // nil while the creating request is still solving

	lastUsed time.Time
	inFlight int // requests currently using the entry; eviction skips > 0
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
	e := &sessionEntry{id: id, lastUsed: time.Now(), inFlight: 1}
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
				s.log.Info("session evicted idle", "session", e.id, "events", e.sess.State().Events,
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
	p, ok := s.intake(w, inline{doc: req.Problem}, nil, req.Target, -1)
	if !ok {
		return
	}
	rq.endDecode(false)
	id := obs.NewTraceID()
	entry, err := s.sessions.reserve(id)
	if err != nil {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session table is full (%d open sessions); delete one or retry later", s.cfg.MaxSessions))
		return
	}
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		s.sessions.abandon(id)
		return
	}
	defer releaseSlot()
	var sess *rentmin.Session
	var resolve *rentmin.SessionResolve
	res := s.run(rq.ctx, rq, "session", -1, func(ctx context.Context) (sol rentmin.Solution, err error) {
		sess, resolve, err = rentmin.NewSession(ctx, p, nil)
		return resolved(resolve, err)
	}, slog.String("session", id))
	if res.err != nil {
		s.sessions.abandon(id)
		s.writeRunError(w, r, res)
		return
	}
	s.sessions.mu.Lock()
	entry.sess = sess
	s.sessions.mu.Unlock()
	s.sessions.release(entry)
	s.met.recordSessionResolve(resolve)
	s.writeJSON(w, http.StatusOK, client.CreateSessionResponse{
		ID:     id,
		Result: wireSessionResolve(resolve),
		State:  client.SessionState{ID: id, SessionState: sess.State()},
	})
}

// handleSessionEvents applies a request's events in order, each as its
// own leased re-solve: an event that fails validation takes no lease,
// and a failed lease wait or re-solve is that event's error. Once the
// client is gone, every later event fails at once, as an unstarted batch
// item does; the applied prefix stays committed.
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
	rq.endDecode(false)
	entry, ok := s.sessions.retain(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (expired, deleted, or never created)")
		return
	}
	defer s.sessions.release(entry)
	releaseSlot, ok := s.acquireSlot(w)
	if !ok {
		return
	}
	defer releaseSlot()

	results := make([]client.SessionResolve, len(req.Events))
	for i, wev := range req.Events {
		ev, err := s.sessionEvent(entry.sess, wev)
		if err != nil {
			results[i] = client.SessionResolve{Kind: wev.Kind, Error: err.Error()}
			continue
		}
		var resolve *rentmin.SessionResolve
		res := s.run(rq.ctx, rq, "session", i, func(ctx context.Context) (sol rentmin.Solution, err error) {
			resolve, err = entry.sess.Apply(ctx, ev)
			return resolved(resolve, err)
		}, slog.String("session", entry.id))
		if res.err != nil {
			results[i] = client.SessionResolve{Kind: wev.Kind, Error: sessionItemError(res.err)}
			continue
		}
		s.met.recordSessionResolve(resolve)
		results[i] = wireSessionResolve(resolve)
	}
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "client went away")
		return
	}
	s.writeJSON(w, http.StatusOK, client.SessionEventsResponse{
		Results: results,
		State:   client.SessionState{ID: entry.id, SessionState: entry.sess.State()},
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.sessions.retain(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (expired, deleted, or never created)")
		return
	}
	defer s.sessions.release(entry)
	s.writeJSON(w, http.StatusOK, client.SessionState{ID: entry.id, SessionState: entry.sess.State()})
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
	events := entry.sess.State().Events
	s.log.Info("session deleted", "session", entry.id, "events", events)
	s.writeJSON(w, http.StatusOK, client.CloseSessionResponse{ID: entry.id, Events: events})
}

// --- wire conversion ---------------------------------------------------------

// sessionEvent converts one wire event into the typed session event,
// enforcing per-event admission: an arrival may not grow the problem past
// the daemon's graph/task bounds and a target change may not exceed the
// target bound — the same limits /v1/solve admission applies, checked
// against the session's current size. Last, the session's operand check
// (rentmin.Session.Validate, which also reads that size) answers, so an
// event it would reject takes no lease and leaves no record.
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
	graphs, tasks, err := sess.Validate(ev)
	if ev.Kind == rentmin.SessionRecipeArrival {
		if graphs+1 > s.cfg.MaxGraphs {
			return ev, fmt.Errorf("arrival would grow the session to %d recipe graphs, admission limit is %d", graphs+1, s.cfg.MaxGraphs)
		}
		if tasks+len(ev.Graph.Tasks) > s.cfg.MaxTasks {
			return ev, fmt.Errorf("arrival would grow the session to %d tasks, admission limit is %d", tasks+len(ev.Graph.Tasks), s.cfg.MaxTasks)
		}
	}
	return ev, err
}

// sessionItemError renders a per-event failure of a lease wait or Apply.
func sessionItemError(err error) string {
	switch {
	case errors.Is(err, errDraining):
		return "not applied: server is shutting down"
	case errors.Is(err, rentmin.ErrSessionClosed):
		return "not applied: session closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "not applied: re-solve deadline exceeded before it started"
	case errors.Is(err, context.Canceled):
		return "not applied: request cancelled"
	}
	return err.Error()
}

// resolved is a session re-solve in the form a solve step returns: the
// flight recorder files its allocation, proof and search counters as it
// does a one-shot solve's.
func resolved(res *rentmin.SessionResolve, err error) (rentmin.Solution, error) {
	if err != nil {
		return rentmin.Solution{}, err
	}
	return rentmin.Solution{
		Alloc:       res.Alloc,
		Proven:      res.Status == "optimal",
		SearchStats: res.SearchStats,
		Elapsed:     res.SolveTime,
	}, nil
}

// wireSessionResolve renders a committed re-solve. Its allocation is the
// Resolve's own copy, which the session does not keep.
func wireSessionResolve(res *rentmin.SessionResolve) client.SessionResolve {
	return client.SessionResolve{
		Seq:         res.Seq,
		Kind:        string(res.Kind),
		Status:      res.Status,
		Allocation:  &res.Alloc,
		Warm:        res.Warm,
		RootLPWarm:  res.RootLPWarm,
		Churn:       res.Churn,
		SolveMs:     ms(res.SolveTime),
		SearchStats: res.SearchStats,
	}
}
