package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rentmin"
)

// SessionOptions tunes a server-side re-optimization session at creation.
type SessionOptions struct {
	// TimeLimit bounds the session's initial solve (zero = daemon
	// default, clamped to the daemon maximum). The daemon does not keep
	// it: each events request carries its own limit (see EventsLimit).
	TimeLimit time.Duration
	// Target, when > 0, overrides the problem's target throughput.
	Target int
}

// Session is a typed handle on one daemon-side re-optimization session
// (POST /v1/sessions). It is safe for concurrent use; the daemon
// serializes concurrent event batches on the session.
type Session struct {
	c  *Client
	id string
}

// NewSession opens a re-optimization session around p: the daemon adopts
// a copy of the problem, solves it cold, and keeps the optimum warm for
// the event stream. The returned SessionResolve is the initial solve
// (Seq 0).
func (c *Client) NewSession(ctx context.Context, p *rentmin.Problem, opts *SessionOptions) (*Session, *SessionResolve, error) {
	raw, err := encodeProblem(p)
	if err != nil {
		return nil, nil, err
	}
	req := CreateSessionRequest{Problem: raw}
	if opts != nil {
		req.TimeLimitMs = millis(opts.TimeLimit)
		if opts.Target > 0 {
			t := opts.Target
			req.Target = &t
		}
	}
	var resp CreateSessionResponse
	if err := c.post(ctx, "/v1/sessions", req, &resp); err != nil {
		return nil, nil, err
	}
	return &Session{c: c, id: resp.ID}, &resp.Result, nil
}

// OpenSession returns a handle on an existing session by ID (e.g. one
// created by another process); it does not verify the ID — the first
// call does.
func (c *Client) OpenSession(id string) *Session { return &Session{c: c, id: id} }

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Events streams events to the session in order and returns the
// per-event outcomes plus the state after the last one. An invalid event
// reports a per-event Error and leaves the session unchanged; later
// events in the same call still apply.
func (s *Session) Events(ctx context.Context, events ...SessionEvent) ([]SessionResolve, SessionState, error) {
	return s.EventsLimit(ctx, 0, events...)
}

// EventsLimit is Events with a time limit on each event's re-solve.
// Zero, like Events, leaves each re-solve to the daemon's default limit;
// the limit given at NewSession applies only to the initial solve.
func (s *Session) EventsLimit(ctx context.Context, limit time.Duration, events ...SessionEvent) ([]SessionResolve, SessionState, error) {
	req := SessionEventsRequest{Events: events, TimeLimitMs: millis(limit)}
	var resp SessionEventsResponse
	if err := s.c.post(ctx, "/v1/sessions/"+s.id+"/events", req, &resp); err != nil {
		return nil, SessionState{}, err
	}
	if len(resp.Results) != len(events) {
		return nil, SessionState{}, fmt.Errorf("rentmind: session returned %d results for %d events", len(resp.Results), len(events))
	}
	return resp.Results, resp.State, nil
}

// State fetches the session's current snapshot (GET /v1/sessions/{id}).
func (s *Session) State(ctx context.Context) (SessionState, error) {
	var st SessionState
	err := s.c.get(ctx, "/v1/sessions/"+s.id, &st)
	return st, err
}

// Close deletes the session (DELETE /v1/sessions/{id}), freeing its slot
// in the daemon's session table.
func (s *Session) Close(ctx context.Context) error {
	body, status, hdr, err := s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(status, body, hdr)
	}
	return nil
}

// --- event constructors -------------------------------------------------------

// RecipeArrivalEvent builds a recipe_arrival event adding g.
func RecipeArrivalEvent(g rentmin.Graph) SessionEvent {
	raw, _ := json.Marshal(g) // plain ints/strings/slices: cannot fail
	return SessionEvent{Kind: "recipe_arrival", Graph: raw}
}

// RecipeDepartureEvent builds a recipe_departure event removing the
// graph at index i of the session's current problem.
func RecipeDepartureEvent(i int) SessionEvent {
	return SessionEvent{Kind: "recipe_departure", GraphIndex: &i}
}

// TargetChangeEvent builds a target_change event to target t.
func TargetChangeEvent(t int) SessionEvent {
	return SessionEvent{Kind: "target_change", Target: &t}
}

// PriceChangeEvent builds a price_change event repricing machine type
// typ to price per hour.
func PriceChangeEvent(typ, price int) SessionEvent {
	return SessionEvent{Kind: "price_change", Type: &typ, Price: &price}
}

// OutageEvent builds an outage event taking machine type typ offline.
func OutageEvent(typ int) SessionEvent {
	return SessionEvent{Kind: "outage", Type: &typ}
}

// RestoreEvent builds a restore event bringing machine type typ back.
func RestoreEvent(typ int) SessionEvent {
	return SessionEvent{Kind: "restore", Type: &typ}
}
