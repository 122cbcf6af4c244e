package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rentmin"
	"rentmin/internal/experiments"
)

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// fig3Problem draws one instance of the paper's Fig. 3 setting.
func fig3Problem(t *testing.T) *rentmin.Problem {
	t.Helper()
	p, err := rentmin.Generate(experiments.Fig3Setting().Gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Target = 100
	return p
}

// TestRequestBodiesMatchMarshal pins the hand-written bodies of Solve,
// SolveRef, SolveBatch and SolveBatchRef, byte for byte, to json.Marshal
// of the request struct each one stands for, over every option.
func TestRequestBodiesMatchMarshal(t *testing.T) {
	var sent []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, _ = io.ReadAll(r.Body)
		var req BatchRequest
		json.Unmarshal(sent, &req)
		json.NewEncoder(w).Encode(BatchResponse{Solutions: make([]Solution, len(req.Problems)+len(req.ProblemRefs))})
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	example := rentmin.IllustratingExample()
	example.Target = 70
	problems := []*rentmin.Problem{example, fig3Problem(t)}
	hash, _, err := ProblemHash(example)
	if err != nil {
		t.Fatal(err)
	}
	ten := 10
	// A hash json.Marshal escapes takes the escaping path.
	refs := []ProblemRef{{Hash: hash, Target: &ten}, {Hash: hash}, {Hash: "a<b>&\"c\\é\n"}}

	for _, opts := range []*Options{
		nil,
		{},
		{Stats: true},
		{TimeLimit: 1500 * time.Millisecond},
		{TimeLimit: 300 * time.Microsecond},
		{TimeLimit: -5 * time.Millisecond},
		{Target: 40},
		{Target: -1},
		{Target: 40, TimeLimit: 2 * time.Second, Stats: true},
	} {
		// The request each method sent before its body was written by
		// hand.
		var limitMs int64
		var stats bool
		var target *int
		if opts != nil {
			limitMs, stats = millis(opts.TimeLimit), opts.Stats
			if opts.Target > 0 {
				t := opts.Target
				target = &t
			}
		}
		docs := make([]json.RawMessage, len(problems))
		for i, p := range problems {
			if docs[i], err = json.Marshal(p); err != nil {
				t.Fatal(err)
			}
		}
		check := func(method string, call error, want interface{}) {
			t.Helper()
			if call != nil {
				t.Fatalf("%s(%+v): %v", method, opts, call)
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sent, wantBody) {
				t.Errorf("%s(%+v) sent\n%s\nwant\n%s", method, opts, sent, wantBody)
			}
		}
		for i, p := range problems {
			_, err := c.Solve(ctx, p, opts)
			check("Solve", err, SolveRequest{Problem: docs[i], Target: target, TimeLimitMs: limitMs, Stats: stats})
		}
		for _, ref := range refs {
			target := 70
			if ref.Target != nil {
				target = *ref.Target
			}
			_, err := c.SolveRef(ctx, ref.Hash, target, opts)
			check("SolveRef", err, SolveRequest{ProblemRef: &ProblemRef{Hash: ref.Hash, Target: &target}, TimeLimitMs: limitMs, Stats: stats})
		}
		for n := 0; n <= len(problems); n++ {
			_, err := c.SolveBatch(ctx, problems[:n], opts)
			check("SolveBatch", err, BatchRequest{Problems: docs[:n], TimeLimitMs: limitMs, Stats: stats})
		}
		for n := 0; n <= len(refs); n++ {
			_, err := c.SolveBatchRef(ctx, refs[:n], opts)
			check("SolveBatchRef", err, BatchRequest{ProblemRefs: refs[:n], TimeLimitMs: limitMs, Stats: stats})
		}
	}
}

// TestSolveBodyAllocs pins the allocations of Solve's request encoding
// for a Fig. 3 instance: the one buffer of the body's exact length, the
// document written in place.
func TestSolveBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p := fig3Problem(t)
	opts := &Options{Stats: true, TimeLimit: time.Second}
	allocs := testing.AllocsPerRun(100, func() {
		if len(solveBody(p, opts)) == 0 {
			t.Fatal("empty body")
		}
	})
	if allocs > 1 {
		t.Errorf("encoding a Fig. 3 /v1/solve body allocates %v objects, want at most 1", allocs)
	}
}
