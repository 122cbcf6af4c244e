package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"rentmin"
	"rentmin/client"
)

// runner drives one workload's plan through its stack in a closed loop:
// the next request goes out when the previous answer has been checked.
type runner struct {
	pl    *plan
	st    *stack
	tally tally
	// certifyUs collects the checker's own cost per answer when set
	// (traced passes only).
	certifyUs *[]float64
}

// outcome is one op's served answers and round-trip time.
type outcome struct {
	lat    time.Duration
	sols   []client.Solution       // solve and batch
	events []client.SessionResolve // event
	err    error                   // transport or non-2xx: every item failed
}

// do sends one op. ctx may carry a trace ID; stats opts into the
// response stats block.
func (r *runner) do(ctx context.Context, o op, stats bool) outcome {
	var opts *client.Options
	if stats {
		opts = &client.Options{Stats: true}
	}
	var oc outcome
	start := time.Now()
	switch o.kind {
	case opSolve:
		var sol *client.Solution
		if sol, oc.err = r.st.c.Solve(ctx, r.pl.inputs[o.items[0]].p, opts); oc.err == nil {
			oc.sols = []client.Solution{*sol}
		}
	case opBatch:
		oc.sols, oc.err = r.st.c.SolveBatchRef(ctx, o.refs, opts)
	case opEvent:
		oc.events, _, oc.err = r.st.sessions[o.sess].Events(ctx, r.pl.sessions[o.sess].wire[o.step])
	}
	oc.lat = time.Since(start)
	return oc
}

// check certifies every item of an op and reports whether all passed.
func (r *runner) check(o op, oc outcome) bool {
	if oc.err != nil {
		n := len(o.items)
		if o.kind == opEvent {
			n = 1
		}
		for k := 0; k < n; k++ {
			r.tally.record(oc.err)
		}
		return false
	}
	ok := true
	if o.kind == opEvent {
		step := r.pl.sessions[o.sess].steps[o.step]
		return r.certify(step.model, step.target, r.pl.inputs[step.in].want, resolveAnswer(&oc.events[0]))
	}
	for k, i := range o.items {
		in := &r.pl.inputs[i]
		ok = r.certify(in.model, in.p.Target, in.want, solutionAnswer(&oc.sols[k])) && ok
	}
	return ok
}

func (r *runner) certify(model *rentmin.CostModel, target int, want int64, a answer) bool {
	start := time.Now()
	err := checkAnswer(model, target, want, a)
	if r.certifyUs != nil {
		*r.certifyUs = append(*r.certifyUs, us(time.Since(start)))
	}
	return r.tally.record(err)
}

// measurement is one timed phase: whole passes until its duration is
// spent, so both sides of a comparison serve the same multiset of ops.
type measurement struct {
	lats     []float64 // ms per op; +Inf when any of its items failed
	items    int
	passes   int
	elapsed  time.Duration
	cpu      time.Duration
	allocs   uint64
	meanHeap float64
}

// measure runs passes until d has elapsed (at least one; d = 0 is the
// untimed warm-up pass). A non-nil tracer sends every op with a trace ID
// and the stats block, and collects what comes back.
func (r *runner) measure(ctx context.Context, d time.Duration, tr *tracer) measurement {
	var m measurement
	heap := startHeapSampler()
	cpu0, allocs0 := cpuTime(), mallocs()
	start := time.Now()
	for m.passes == 0 || time.Since(start) < d {
		for _, o := range r.pl.ops {
			octx, id := ctx, ""
			if tr != nil {
				octx, id = tr.begin(ctx)
			}
			start := time.Now()
			oc := r.do(octx, o, tr != nil)
			lat := ms(oc.lat)
			if !r.check(o, oc) {
				lat = math.Inf(1)
			}
			m.lats = append(m.lats, lat)
			if tr != nil {
				tr.end(o, oc, id, start, time.Now())
			}
		}
		m.passes++
	}
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.allocs = mallocs() - allocs0
	m.meanHeap = heap.finish()
	m.items = m.passes * r.pl.items()
	return m
}

// heapMetric is the heap memory occupied by objects: live ones and
// garbage not yet swept.
const heapMetric = "/memory/classes/heap/objects:bytes"

// mallocs is the count of heap objects allocated so far. ReadMemStats
// flushes every P's allocation cache, so small counts are exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler averages the heap in use over time, sampled every 5 ms
// until finish. The time average is steady from run to run; a peak
// depends on where each collection happens to land.
type heapSampler struct {
	stop, done chan struct{}
	sum, n     float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.sum += float64(s[0].Value.Uint64())
			h.n++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the mean heap in use in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.sum / h.n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
