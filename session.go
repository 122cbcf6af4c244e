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
// order and commit deterministically. On error — ErrInvalidSessionEvent,
// ErrSessionClosed, or a cancelled context — Apply leaves the session
// unchanged.
type Session = session.Session

// NewSession validates and adopts a clone of p, solves it cold, and
// returns the session plus the initial resolve (Seq 0).
func NewSession(ctx context.Context, p *Problem, opts *SessionOptions) (*Session, *SessionResolve, error) {
	var sopts session.Options
	if opts != nil {
		sopts.DisableWarm = opts.DisableWarm
	}
	return session.New(ctx, p, sopts)
}
