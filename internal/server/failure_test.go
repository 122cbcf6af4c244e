package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rentmin"
	"rentmin/client"
)

// TestLocalSolvePanicFailsOnlyItsProblem makes the local solver panic on
// one target. The panic comes back as that request's 500 and as that
// batch item's error, the batch's other item is solved behind the same
// single lease, no lease stays held, and the next solve succeeds.
func TestLocalSolvePanicFailsOnlyItsProblem(t *testing.T) {
	const poisoned = 71
	localSolve = func(ctx context.Context, p *rentmin.Problem, opts *rentmin.SolveOptions) (rentmin.Solution, error) {
		if p.Target == poisoned {
			panic("poisoned problem")
		}
		return rentmin.SolveContext(ctx, p, opts)
	}
	t.Cleanup(func() { localSolve = rentmin.SolveContext })
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	_, err := c.Solve(ctx, fastProblem(poisoned), nil)
	if e := apiStatus(t, err); e.StatusCode != http.StatusInternalServerError || !strings.Contains(e.Message, "poisoned problem") {
		t.Errorf("poisoned solve: %d %q, want 500 naming the panic", e.StatusCode, e.Message)
	}

	sols, err := c.SolveBatch(ctx, []*rentmin.Problem{fastProblem(poisoned), fastProblem(70)}, nil)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if !strings.Contains(sols[0].Error, "poisoned problem") {
		t.Errorf("poisoned item error %q, want the panic", sols[0].Error)
	}
	if sols[1].Error != "" || sols[1].Allocation.Cost != 124 {
		t.Errorf("healthy item not solved: %+v", sols[1])
	}

	h, err := c.Health(ctx)
	if err != nil || h.InFlight != 0 || h.QueueDepth != 0 {
		t.Errorf("health after the panics: %+v %v, want nothing in flight or queued", h, err)
	}
	sol, err := c.Solve(ctx, fastProblem(70), nil)
	if err != nil || sol.Allocation.Cost != 124 {
		t.Errorf("solve after the panics: %v %v, want cost 124", sol, err)
	}
}

// TestUnencodableAnswerIs500: an answer JSON cannot encode (a -Inf bound,
// say) is a 500 with an error body, never a 200 without a body.
func TestUnencodableAnswerIs500(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, client.Solution{Bound: math.Inf(-1)})
	var body client.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(body.Error, "unsupported value") {
		t.Errorf("answer %d %q (%v), want 500 naming the unsupported value", rec.Code, rec.Body.String(), err)
	}
}
