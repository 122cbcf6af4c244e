package obs

import (
	"math"
	"sort"
	"sync"
)

// Recorder is a fixed-size ring of the most recent records: a daemon's
// solve flight recorder keeps the entries it serves on /debug/solves, and
// a Recorder[float64] is the sliding window of observations a /metrics
// summary reads its Quantiles from.
// All methods are safe for concurrent use and safe on a nil receiver (a
// nil recorder drops everything), so callers never guard the disabled
// case.
type Recorder[T any] struct {
	mu    sync.Mutex
	ring  []T
	next  int
	total int64
}

// NewRecorder returns a recorder keeping the last n records; n <= 0
// selects the default of 64.
func NewRecorder[T any](n int) *Recorder[T] {
	if n <= 0 {
		n = 64
	}
	return &Recorder[T]{ring: make([]T, 0, n)}
}

// Add appends a record, evicting the oldest once the ring is full.
func (r *Recorder[T]) Add(rec T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
}

// Last returns up to n records, newest first. n <= 0 means all retained.
func (r *Recorder[T]) Last(n int) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]T, 0, n)
	// Newest element is at next-1 (the ring grows at next once full,
	// or at len(ring)-1 while filling).
	newest := len(r.ring) - 1
	if len(r.ring) == cap(r.ring) && r.total > int64(len(r.ring)) {
		newest = r.next - 1
		if newest < 0 {
			newest += len(r.ring)
		}
	}
	for i := 0; i < n; i++ {
		j := newest - i
		if j < 0 {
			j += len(r.ring)
		}
		out = append(out, r.ring[j])
	}
	return out
}

// Total is the number of records ever added, including evicted ones.
func (r *Recorder[T]) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Quantiles returns the requested quantiles (each in [0,1]) of samples,
// or NaNs when there are none: quantile q is the sample at index
// ⌊q·(len−1)⌋ of the sorted samples. It sorts samples in place, so a
// caller passes a copy, such as the Recorder.Last(0) the /metrics
// summaries (solve latency, queue wait, per-worker dispatch RTT) read.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(samples)
	for i, q := range qs {
		idx := int(q * float64(len(samples)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		out[i] = samples[idx]
	}
	return out
}
