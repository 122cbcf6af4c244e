package obs

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace ID %q: want 32 hex chars", id)
		}
		if !ValidTraceID(id) {
			t.Fatalf("trace ID %q fails its own validator", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	valid := []string{"a", "deadbeef", "A-Z_09", "0123456789abcdef0123456789abcdef"}
	for _, s := range valid {
		if !ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", "has space", "semi;colon", "x/y", "héx", string(make([]byte, 65))}
	for _, s := range invalid {
		if ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = true, want false", s)
		}
	}
}

func TestTraceIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Fatalf("empty context carries trace ID %q", got)
	}
	ctx = WithTraceID(ctx, "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Fatalf("TraceID = %q, want abc123", got)
	}
}

// TestNilTracerZeroAllocs pins the off-by-default contract: a nil
// tracer must cost nothing on hot paths — no allocations for trajectory
// points or for looking the trace up in a context without one — and
// nil-safe accessors.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		got := TraceFrom(context.Background())
		got.Incumbent(42)
		got.Round(1, 40, 42, true, 3, 7)
	})
	if allocs != 0 {
		t.Fatalf("TraceFrom/Incumbent/Round without a trace allocate %v times per op, want 0", allocs)
	}
	if incs, rounds, truncated := tr.Trajectory(); incs != nil || rounds != nil || truncated {
		t.Fatal("nil tracer Trajectory() not empty")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("empty context carries trace %p", got)
	}
	tr := NewTrace(time.Now())
	ctx := WithTrace(WithTraceID(context.Background(), "id1"), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	if got := TraceID(ctx); got != "id1" {
		t.Fatalf("trace shadowed the trace ID: TraceID = %q", got)
	}
}

// TestTrajectoryPointsAndCaps: points come back in order and in wire
// form (no incumbent while none exists), and past its cap a trajectory
// keeps its head and reports the truncation.
func TestTrajectoryPointsAndCaps(t *testing.T) {
	tr := NewTrace(time.Now())
	tr.Round(1, 10, math.Inf(1), false, 2, 1)
	tr.Incumbent(30)
	tr.Round(2, 12, 30, true, 1, 3)
	incs, rounds, truncated := tr.Trajectory()
	if truncated || len(incs) != 1 || incs[0].Cost != 30 || len(rounds) != 2 {
		t.Fatalf("trajectory = %+v %+v truncated=%v", incs, rounds, truncated)
	}
	if rounds[0].Incumbent != nil {
		t.Fatalf("round without an incumbent recorded %v", *rounds[0].Incumbent)
	}
	if r := rounds[1]; r.Round != 2 || r.Bound != 12 || r.Incumbent == nil || *r.Incumbent != 30 || r.Frontier != 1 || r.Nodes != 3 {
		t.Fatalf("round 2 = %+v", r)
	}
	if incs[0].AtMs > rounds[1].AtMs || rounds[0].AtMs > incs[0].AtMs {
		t.Fatalf("offsets out of order: %+v %+v", incs, rounds)
	}

	incTr, roundTr := NewTrace(time.Now()), NewTrace(time.Now())
	for i := 0; i < 300; i++ {
		incTr.Incumbent(float64(i))
	}
	for i := 1; i <= 600; i++ {
		roundTr.Round(i, 0, 0, false, 0, i)
	}
	incs, _, incTrunc := incTr.Trajectory()
	_, rounds, roundTrunc := roundTr.Trajectory()
	if !incTrunc || !roundTrunc {
		t.Fatalf("truncated = %v (incumbents), %v (rounds), want both set", incTrunc, roundTrunc)
	}
	if len(incs) != MaxIncumbentPoints || len(rounds) != MaxRoundPoints {
		t.Fatalf("kept %d incumbents and %d rounds, want %d and %d",
			len(incs), len(rounds), MaxIncumbentPoints, MaxRoundPoints)
	}
	for i, ip := range incs {
		if ip.Cost != float64(i) {
			t.Fatalf("incumbent %d = %v, want the head of the sequence", i, ip.Cost)
		}
	}
	for i, rp := range rounds {
		if rp.Round != i+1 {
			t.Fatalf("round point %d is round %d, want the head of the sequence", i, rp.Round)
		}
	}
	// Copies: editing the result does not reach the trace.
	incs[0].Cost = -1
	if again, _, _ := incTr.Trajectory(); again[0].Cost != 0 {
		t.Fatal("Trajectory returned the trace's own slice")
	}
}

func TestNilRecorderAndWindowSafe(t *testing.T) {
	var r *Recorder[string]
	r.Add("t0")
	if r.Last(10) != nil || r.Total() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var w *Recorder[float64]
	w.Add(1)
	if w.Total() != 0 {
		t.Fatal("nil window not inert")
	}
	qs := Quantiles(w.Last(0), 0.5)
	if !math.IsNaN(qs[0]) {
		t.Fatalf("nil window quantile = %v, want NaN", qs[0])
	}
}

func TestRecorderRingNewestFirst(t *testing.T) {
	r := NewRecorder[string](4)
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprintf("t%d", i))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	recs := r.Last(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if recs[i] != want {
			t.Fatalf("Last[%d] = %q, want %q (full: %+v)", i, recs[i], want, recs)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[0] != "t9" || got[1] != "t8" {
		t.Fatalf("Last(2) = %+v", got)
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder[string](8)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("t%d", i))
	}
	recs := r.Last(0)
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, want := range []string{"t2", "t1", "t0"} {
		if recs[i] != want {
			t.Fatalf("Last[%d] = %q, want %q", i, recs[i], want)
		}
	}
}

func TestWindowQuantiles(t *testing.T) {
	w := NewRecorder[float64](100)
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	qs := Quantiles(w.Last(0), 0, 0.5, 0.99, 1)
	if qs[0] != 1 {
		t.Fatalf("q0 = %v, want 1", qs[0])
	}
	if qs[1] != 50 {
		t.Fatalf("median = %v, want 50 (index ⌊0.5·99⌋ of 1..100)", qs[1])
	}
	if qs[2] != 99 {
		t.Fatalf("q0.99 = %v, want 99 (index ⌊0.99·99⌋ of 1..100)", qs[2])
	}
	if qs[3] != 100 {
		t.Fatalf("q1 = %v, want 100", qs[3])
	}
	// Window slides: add 100 more larger values, median moves up.
	for i := 101; i <= 200; i++ {
		w.Add(float64(i))
	}
	if med := Quantiles(w.Last(0), 0.5)[0]; med != 150 {
		t.Fatalf("slid median = %v, want 150", med)
	}
	if w.Total() != 200 {
		t.Fatalf("Total = %d, want 200", w.Total())
	}
	// Out-of-range quantiles clamp to the extremes.
	if qs := Quantiles([]float64{3, 1, 2}, -1, 2); qs[0] != 1 || qs[1] != 3 {
		t.Fatalf("clamped quantiles = %v, want [1 3]", qs)
	}
}

func TestWindowEmptyQuantilesNaN(t *testing.T) {
	w := NewRecorder[float64](16)
	for _, q := range Quantiles(w.Last(0), 0.5, 0.99) {
		if !math.IsNaN(q) {
			t.Fatalf("empty window quantile = %v, want NaN", q)
		}
	}
}
