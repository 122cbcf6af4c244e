package client

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"rentmin/internal/rng"
)

// Backoff computes jittered exponential retry delays. The jitter is
// drawn from a seeded RNG (internal/rng), so a fixed seed yields a fixed
// delay schedule and tests that exercise retry paths stay deterministic.
// The zero field values mean: Base 100ms, Max 5s, Factor 2, Jitter ±20%.
// A Backoff is safe for concurrent use and may be shared — e.g. one
// schedule across every worker of a fleet.
type Backoff struct {
	// Base is the delay before the first retry.
	Base time.Duration
	// Max caps the grown delay (before jitter).
	Max time.Duration
	// Factor multiplies the delay per further attempt.
	Factor float64
	// Jitter is the fraction of the delay randomized symmetrically
	// around it: 0.2 draws uniformly from [0.8d, 1.2d]. Negative
	// disables jitter entirely (0 falls back to the 0.2 default, like
	// the other fields).
	Jitter float64

	mu  sync.Mutex
	src *rng.Source
}

// NewBackoff returns the default schedule (100ms base, 5s cap, factor 2,
// ±20% jitter) with jitter drawn from the given seed.
func NewBackoff(seed uint64) *Backoff {
	return &Backoff{src: rng.New(seed)}
}

// Delay returns the jittered wait before the attempt-th retry (attempt
// counts from 1).
func (b *Backoff) Delay(attempt int) time.Duration {
	base, max, factor, jitter := b.Base, b.Max, b.Factor, b.Jitter
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if factor < 1 {
		factor = 2
	}
	if jitter == 0 {
		jitter = 0.2
	}
	d := float64(base)
	for a := 1; a < attempt && d < float64(max); a++ {
		d *= factor
	}
	if d > float64(max) {
		d = float64(max)
	}
	if jitter > 0 {
		b.mu.Lock()
		if b.src == nil {
			b.src = rng.New(0)
		}
		u := b.src.Float64()
		b.mu.Unlock()
		d *= 1 + jitter*(2*u-1)
	}
	return time.Duration(d)
}

// Retry runs fn up to attempts times (at least once; attempts <= 0 means
// 3), honoring what the daemon said about retrying: only a queue
// overflow (an *APIError with status 429) is retried, and the wait
// before the next attempt is the larger of the backoff delay and the
// server's Retry-After hint. A draining daemon's 503 never clears, so
// it returns immediately, as do permanent rejections (400, 422), solve
// failures and transport errors: at the fleet level those are the
// dispatcher's business (re-dispatch to another worker), not this
// worker's.
//
// Cancelling ctx during a wait returns the last error observed.
func Retry(ctx context.Context, b *Backoff, attempts int, fn func() error) error {
	if attempts <= 0 {
		attempts = 3
	}
	if b == nil {
		b = NewBackoff(0)
	}
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || attempt >= attempts {
			return err
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
			return err
		}
		wait := b.Delay(attempt)
		if ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}
