// Package obs is the zero-dependency observability layer shared by the
// solver service: trace IDs propagated across processes via
// context.Context and the X-Rentmin-Trace-Id header, a search trace, a
// per-solve flight recorder (ring buffer behind GET /debug/solves), and a
// sliding-window quantile estimator backing the /metrics latency
// summaries.
//
// Everything here is deliberately cheap enough to leave on in
// production: a nil *Trace drops trajectory points without allocating,
// and the recorder is a fixed-size ring. A Trace is the one observer of
// a search: attached to a solve's context with WithTrace, it receives the
// branch-and-bound trajectory once per accepted incumbent and once per
// expansion round — never from the node-expansion hot path — and a
// context without a trace costs the search one nil check per event.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// fallbackCounter feeds NewTraceID when crypto/rand is unavailable
// (never in practice, but an ID generator must not fail).
var fallbackCounter atomic.Uint64

// NewTraceID returns a fresh 16-byte random trace ID in lowercase hex,
// the same shape as a W3C trace-id. It never fails.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%032x", fallbackCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is acceptable as a propagated trace
// ID: 1–64 characters drawn from [A-Za-z0-9_-]. The server generates
// 32-hex-char IDs but accepts any token in this alphabet so callers can
// supply their own correlation keys.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

type traceIDKey struct{}

// WithTraceID returns a context carrying the given trace ID. The client
// stamps it onto outgoing requests as the X-Rentmin-Trace-Id header, so
// annotating a request context here is all a caller needs to do for the
// ID to follow the solve across processes.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the trace ID carried by ctx, or "" if none.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// Trajectory caps: a pathological search could improve its incumbent or
// run rounds millions of times; a trace keeps the head of the trajectory
// and marks the truncation instead of growing without bound.
const (
	MaxIncumbentPoints = 256
	MaxRoundPoints     = 512
)

// IncumbentPoint is one incumbent improvement: the search accepted a
// feasible point of the given cost at the given offset from the trace
// start. Its JSON tags are the rentmind wire names.
type IncumbentPoint struct {
	AtMs float64 `json:"at_ms"`
	Cost float64 `json:"cost"`
}

// RoundPoint is one branch-and-bound expansion round: the proven bound,
// the incumbent (nil while none exists — +Inf does not encode in JSON),
// and the search shape after the round. AtMs is the offset from the
// trace start; Round is 1-based.
type RoundPoint struct {
	Round     int      `json:"round"`
	AtMs      float64  `json:"at_ms"`
	Bound     float64  `json:"bound"`
	Incumbent *float64 `json:"incumbent,omitempty"`
	Frontier  int      `json:"frontier"`
	Nodes     int      `json:"nodes"`
}

// Trace collects, attached to a solve's context, that search's
// trajectory. Every offset it records is measured from its start. A nil
// *Trace is a valid no-op tracer: the trajectory methods drop their
// points without allocating, so callers never need to guard call sites.
type Trace struct {
	start time.Time

	mu         sync.Mutex
	incumbents []IncumbentPoint
	rounds     []RoundPoint
	truncated  bool
}

type traceKey struct{}

// WithTrace returns a context carrying t. The branch-and-bound search
// started under that context records its trajectory on t. A trace
// observes one solve: concurrent solves (the items of a batch) each need
// their own, or their points interleave.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil if none.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// NewTrace starts a trace whose offsets count from start.
func NewTrace(start time.Time) *Trace {
	return &Trace{start: start}
}

// Incumbent records an accepted incumbent of the given cost. Safe on a
// nil tracer.
func (t *Trace) Incumbent(cost float64) {
	if t == nil {
		return
	}
	at := ms(time.Since(t.start))
	t.mu.Lock()
	if len(t.incumbents) < MaxIncumbentPoints {
		t.incumbents = append(t.incumbents, IncumbentPoint{AtMs: at, Cost: cost})
	} else {
		t.truncated = true
	}
	t.mu.Unlock()
}

// Round records the search state after one expansion round: its 1-based
// index, the proven bound, the incumbent cost (ignored unless
// hasIncumbent), the open frontier and the cumulative explored nodes.
// Safe on a nil tracer.
func (t *Trace) Round(round int, bound, incumbent float64, hasIncumbent bool, frontier, nodes int) {
	if t == nil {
		return
	}
	rp := RoundPoint{Round: round, AtMs: ms(time.Since(t.start)), Bound: bound, Frontier: frontier, Nodes: nodes}
	if hasIncumbent {
		inc := incumbent // only a round with an incumbent allocates
		rp.Incumbent = &inc
	}
	t.mu.Lock()
	if len(t.rounds) < MaxRoundPoints {
		t.rounds = append(t.rounds, rp)
	} else {
		t.truncated = true
	}
	t.mu.Unlock()
}

// Trajectory returns copies of the recorded incumbent and round points
// (nil when none) and whether either hit its cap. Safe on a nil tracer.
func (t *Trace) Trajectory() (incumbents []IncumbentPoint, rounds []RoundPoint, truncated bool) {
	if t == nil {
		return nil, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]IncumbentPoint(nil), t.incumbents...), append([]RoundPoint(nil), t.rounds...), t.truncated
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
