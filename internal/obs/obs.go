// Package obs is the zero-dependency observability layer shared by the
// solver service: trace IDs propagated across processes via
// context.Context and the X-Rentmin-Trace-Id header, a per-request span
// tracer, a per-solve flight recorder (ring buffer behind GET
// /debug/solves), and a sliding-window quantile estimator backing the
// /metrics latency summaries.
//
// Everything here is deliberately cheap enough to leave on in
// production: the tracer has a nil fast path (a nil *Trace hands out
// no-op spans and drops trajectory points without allocating), and the
// recorder is a fixed-size ring. A Trace is also the one observer of a
// search: attached to a solve's context with WithTrace, it receives the
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

// SpanRecord is one completed span: a named phase of a request with its
// offset from the trace start and its duration.
type SpanRecord struct {
	Name  string
	Start time.Duration // offset from Trace start
	Dur   time.Duration
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

// Trace collects the spans of one request and, when attached to a solve's
// context, that search's trajectory. Every offset it records is measured
// from its own start. A nil *Trace is a valid no-op tracer: StartSpan
// returns a zero Span whose End does nothing, and the trajectory methods
// drop their points, without allocating — callers never need to guard
// call sites.
type Trace struct {
	ID    string
	start time.Time

	mu         sync.Mutex
	spans      []SpanRecord
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

// NewTrace starts a trace identified by id.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, start: time.Now()}
}

// Fork returns a new trace with t's ID, start and completed spans: one
// item of a request that t has traced so far, going on with a timeline
// of its own. Fork on a nil tracer returns nil.
func (t *Trace) Fork() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{ID: t.ID, start: t.start, spans: t.Spans()}
}

// Span is an in-flight phase of a Trace. The zero Span (from a nil
// tracer) is inert.
type Span struct {
	t     *Trace
	name  string
	start time.Duration
}

// StartSpan opens a named span. On a nil tracer it returns an inert
// zero Span and performs no allocation.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Since(t.start)}
}

// End closes the span, appending it to its trace. Inert spans no-op.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.start)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, SpanRecord{Name: s.name, Start: s.start, Dur: end - s.start})
	s.t.mu.Unlock()
}

// Spans returns a copy of the completed spans in completion order.
// Safe on a nil tracer.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
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

// Elapsed is the time since the trace started (zero on a nil tracer).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}
