package rentmin

import (
	"context"

	"rentmin/internal/session"
)

// Online re-optimization: a Session owns a mutable Problem plus its
// current optimal allocation and re-solves warm after every streamed
// event (recipe arrivals and departures, target changes, price changes,
// outages and restores). See internal/session for the delta semantics
// and docs/sessions.md for the service surface cmd/rentmind exposes on
// top of this API (/v1/sessions).
type (
	// SessionEvent is one streamed mutation; set Kind plus the fields it
	// names (see the SessionEvent* kind constants).
	SessionEvent = session.Event
	// SessionEventKind names a session mutation.
	SessionEventKind = session.EventKind
	// SessionResolve is the outcome of applying one event: the committed
	// allocation, whether the re-solve ran warm, and its churn (machine
	// moves versus the previous allocation).
	SessionResolve = session.Resolve
	// SessionState is a point-in-time session snapshot.
	SessionState = session.State
	// SessionRecord is one event-log entry.
	SessionRecord = session.Record
)

// The session event kinds.
const (
	SessionRecipeArrival   = session.RecipeArrival
	SessionRecipeDeparture = session.RecipeDeparture
	SessionTargetChange    = session.TargetChange
	SessionPriceChange     = session.PriceChange
	SessionOutage          = session.Outage
	SessionRestore         = session.Restore
)

// Session error sentinels.
var (
	// ErrSessionClosed is returned by Session.Apply after Close.
	ErrSessionClosed = session.ErrClosed
	// ErrInvalidSessionEvent wraps every event-validation failure; an
	// invalid event leaves the session unchanged.
	ErrInvalidSessionEvent = session.ErrInvalidEvent
)

// SessionOptions tunes a session's re-solves. It has no time limit:
// the context passed to NewSession or Apply bounds that solve.
type SessionOptions struct {
	// Workers is ignored: every re-solve runs one sequential
	// branch-and-bound search.
	//
	// Deprecated: it remains only so that callers which still set it
	// compile; it will be removed once none does.
	Workers int
	// DisableWarm forces every re-solve cold: no incumbent seeding from
	// the previous optimum and no structural root basis
	// (ablation/benchmarks).
	DisableWarm bool
}

// Session is a long-lived online re-optimization session. Methods are
// safe for concurrent use; concurrent Apply calls serialize in arrival
// order and commit deterministically.
type Session struct {
	inner *session.Session
}

// NewSession validates and adopts a clone of p, solves it cold, and
// returns the session plus the initial resolve (Seq 0).
func NewSession(ctx context.Context, p *Problem, opts *SessionOptions) (*Session, *SessionResolve, error) {
	var sopts session.Options
	if opts != nil {
		sopts.DisableWarm = opts.DisableWarm
	}
	inner, res, err := session.New(ctx, p, sopts)
	if err != nil {
		return nil, nil, err
	}
	return &Session{inner: inner}, res, nil
}

// Apply applies one event as a problem delta, re-solves (warm from the
// previous optimum when possible), commits, and reports the outcome.
// On error — ErrInvalidSessionEvent, ErrSessionClosed, or a cancelled
// context — the session state is unchanged.
func (s *Session) Apply(ctx context.Context, ev SessionEvent) (*SessionResolve, error) {
	return s.inner.Apply(ctx, ev)
}

// Validate checks an event's operands against the session's current
// problem and returns the error Apply would return for them, without
// solving, together with the problem's size: its recipe graphs and the
// tasks across them, read under the same lock. An event that passes may
// still fail in Apply when another event commits in between.
func (s *Session) Validate(ev SessionEvent) (graphs, tasks int, err error) {
	return s.inner.Validate(ev)
}

// State returns a snapshot: current target, allocation, offline types,
// warm/cold resolve counters, and cumulative churn.
func (s *Session) State() SessionState { return s.inner.State() }

// Log returns a copy of the event log.
func (s *Session) Log() []SessionRecord { return s.inner.Log() }

// Problem returns a clone of the full mutated problem (outages not
// applied).
func (s *Session) Problem() *Problem { return s.inner.Problem() }

// EffectiveProblem returns a clone of the problem the next re-solve
// actually optimizes — graphs excluded by outages dropped — plus each
// retained graph's index in the full problem. A cold Solve of this
// problem is the session's correctness oracle.
func (s *Session) EffectiveProblem() (*Problem, []int) { return s.inner.EffectiveProblem() }

// Close rejects further events (snapshots keep working).
func (s *Session) Close() { s.inner.Close() }
