package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// recorder is a transport that keeps every response body it carries.
type recorder struct{ bodies [][]byte }

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.bodies = append(r.bodies, body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// daemonAnswers returns the bodies of a daemon's answers: a proven
// optimum, the same with a stats block, a batch, and a session's events
// answers, one with machine types offline, one infeasible and one with
// an error item. It adds answers with an unproven solution and a batch
// error item, which a quick test cannot make a daemon write, as the
// daemon writes them: json.Marshal of the wire type.
func daemonAnswers(tb testing.TB) [][]byte {
	tb.Helper()
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	rec := &recorder{}
	c := client.NewWithHTTPClient(hs.URL, &http.Client{Transport: rec})
	ctx := context.Background()

	p := rentmin.IllustratingExample()
	p.Target = 70
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	_, err := c.Solve(ctx, p, nil)
	must(err)
	_, err = c.Solve(ctx, p, &client.Options{Stats: true})
	must(err)
	_, err = c.SolveBatch(ctx, []*rentmin.Problem{p, p, p}, nil)
	must(err)
	// The example's recipes run on types {1,3}, {2,3} and {0,1}.
	sess, _, err := c.NewSession(ctx, p, nil)
	must(err)
	_, _, err = sess.Events(ctx, client.OutageEvent(3), client.PriceChangeEvent(0, 7))
	must(err)
	_, _, err = sess.Events(ctx, client.OutageEvent(0))
	must(err)
	_, _, err = sess.Events(ctx, client.RestoreEvent(0), client.RestoreEvent(3), client.OutageEvent(99))
	must(err)

	marshal := func(v interface{}) []byte {
		data, err := json.Marshal(v)
		must(err)
		return data
	}
	unproven := client.Solution{
		Allocation: rentmin.Allocation{GraphThroughput: []int{40, 30}, Machines: []int{1, 2, 3}, Cost: 124},
		Bound:      118.25, ElapsedMs: 1000.5, SearchStats: fullStats(),
	}
	return append(rec.bodies,
		marshal(unproven),
		marshal(client.BatchResponse{Solutions: []client.Solution{unproven, {Error: "deadline exceeded before the item started"}}}),
	)
}

// FuzzAnswer holds the answer scan to encoding/json. For each answer
// shape, a body the scan accepts must decode with encoding/json, without
// error, to a deeply equal value; a body it declines must leave the
// value untouched, and the client's decode must then give encoding/json's
// value and error.
func FuzzAnswer(f *testing.F) {
	for _, body := range daemonAnswers(f) {
		f.Add(body)
	}
	for _, seed := range []string{
		`null`,
		`{}`,
		`{"solutions":[]}`,
		`{"results":[],"state":{"offline":[]}}`,
		`{"allocation":{"graph_throughput":[1],"machines":[2],"cost":3},"proven":true,"bound":-0,"elapsed_ms":1e-7}`,
		`{"allocation":{"graph_throughput":[1],"machines":[2],"cost":3},"Proven":true}`,
		`{"proven":true,"proven":false}`,
		`{"bound":1e999}`,
		`{"bound":.5}`,
		`{"nodes":1.0}`,
		`{"nodes":-0}`,
		`{"results":[{"kind":"aA"}]}`,
		`{"results":[{"seq":1,"allocation":null}]}`,
		`{"solutions":[{"unknown":1}]}`,
		`{"state":{"id":"x","feasible":false,"churn_ratio":0.5}} x`,
	} {
		f.Add([]byte(seed))
	}
	shapes := []func() interface{}{
		func() interface{} { return new(client.Solution) },
		func() interface{} { return new(client.BatchResponse) },
		func() interface{} { return new(client.SessionEventsResponse) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range shapes {
			got, want := shape(), shape()
			errWant := json.Unmarshal(data, want)
			if client.ScanAnswer(data, got) {
				if errWant != nil {
					t.Fatalf("%T: the scan accepted %q, which encoding/json rejects: %v", got, data, errWant)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%T: the scan decoded %q to\n%+v\nencoding/json to\n%+v", got, data, got, want)
				}
				continue
			}
			if !reflect.DeepEqual(got, shape()) {
				t.Fatalf("%T: a declined scan of %q changed the value to %+v", got, data, got)
			}
			errGot := client.DecodeAnswer(data, got)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decoding %q gave %+v, %v; encoding/json %+v, %v", got, data, got, errGot, want, errWant)
			}
		}
	})
}

// TestAnswersScanned checks that the daemon's usual answers take the
// scan, and the ones outside its shape do not.
func TestAnswersScanned(t *testing.T) {
	bodies := daemonAnswers(t)
	// In the order daemonAnswers makes them, with the shape each has.
	for i, c := range []struct {
		out  interface{}
		scan bool
	}{
		{new(client.Solution), true},               // proven optimum
		{new(client.Solution), false},              // stats block
		{new(client.BatchResponse), true},          // batch
		{new(client.CreateSessionResponse), false}, // not a hot shape
		{new(client.SessionEventsResponse), true},  // types offline
		{new(client.SessionEventsResponse), true},  // infeasible
		{new(client.SessionEventsResponse), false}, // error item
		{new(client.Solution), true},               // unproven
		{new(client.BatchResponse), false},         // batch error item
	} {
		if got := client.ScanAnswer(bodies[i], c.out); got != c.scan {
			t.Errorf("answer %d (%T) %s: scanned %v, want %v", i, c.out, bodies[i], got, c.scan)
		}
	}
}

// TestLargeAndChunkedAnswers reads an answer sent without a length and
// one longer than the client's response cap. The first decodes; the
// second is cut at the cap and refused, with or without a length.
func TestLargeAndChunkedAnswers(t *testing.T) {
	body, err := json.Marshal(client.Solution{
		Allocation: rentmin.Allocation{GraphThroughput: make([]int, 100), Machines: make([]int, 100), Cost: 7},
		Proven:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunked := true
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !chunked {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		}
		for i := 0; i < len(body); i += 100 {
			w.Write(body[i:min(i+100, len(body))])
			w.(http.Flusher).Flush()
		}
	}))
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()
	p := rentmin.IllustratingExample()
	sol, err := c.Solve(ctx, p, nil)
	if err != nil {
		t.Fatalf("chunked answer: %v", err)
	}
	if sol.Allocation.Cost != 7 || len(sol.Allocation.Machines) != 100 || !sol.Proven {
		t.Errorf("chunked answer decoded to %+v", sol)
	}

	defer client.SetMaxResponseBytes(int64(len(body) - 1))()
	for _, chunked = range []bool{true, false} {
		_, err := c.Solve(ctx, p, nil)
		if want := "rentmind: decode /v1/solve response: unexpected end of JSON input"; fmt.Sprint(err) != want {
			t.Errorf("answer over the cap (chunked %v): err %v, want %s", chunked, err, want)
		}
	}
}

// TestAnswerDecodeAllocs pins the objects it takes to decode the answers
// of the hot paths: the value itself, then one array of each element
// type and one string.
func TestAnswerDecodeAllocs(t *testing.T) {
	if client.RaceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	alloc := func(graphs, types int) rentmin.Allocation {
		a := rentmin.Allocation{GraphThroughput: make([]int, graphs), Machines: make([]int, types), Cost: 123456}
		for i := range a.GraphThroughput {
			a.GraphThroughput[i] = 10 * i
		}
		for i := range a.Machines {
			a.Machines[i] = i % 7
		}
		return a
	}
	sol := client.Solution{Allocation: alloc(20, 5), Proven: true, Bound: 1234.5, ElapsedMs: 3.25, SearchStats: fullStats()}
	batch := client.BatchResponse{Solutions: make([]client.Solution, 8)}
	for i := range batch.Solutions {
		batch.Solutions[i] = sol
	}
	sessAlloc := alloc(40, 100)
	events := client.SessionEventsResponse{
		Results: []client.SessionResolve{{Seq: 12, Kind: "price_change", Status: "optimal", Allocation: &sessAlloc,
			Warm: true, RootLPWarm: true, Churn: 3, SolveMs: 1.5, SearchStats: fullStats()}},
		State: client.SessionState{ID: "0123456789abcdef", SessionState: rentmin.SessionState{Events: 12, Graphs: 40, Tasks: 130, Target: 150,
			Feasible: true, Cost: 123456, Alloc: sessAlloc, Offline: []int{4, 9}, WarmResolves: 10, ColdResolves: 2, ChurnMoves: 40, ChurnRatio: 0.25}},
	}
	for _, c := range []struct {
		name  string
		v     interface{}
		shape func() interface{}
		want  float64
	}{
		// The Solution, and one int array.
		{"/v1/solve", sol, func() interface{} { return new(client.Solution) }, 2},
		// The response, its solutions and one int array.
		{"8-item /v1/batch", batch, func() interface{} { return new(client.BatchResponse) }, 3},
		// The response, its results, their allocations, one int array
		// and one string.
		{"40x100 session events", events, func() interface{} { return new(client.SessionEventsResponse) }, 5},
	} {
		body, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !client.ScanAnswer(body, c.shape()) {
			t.Fatalf("%s: the answer is not scanned", c.name)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := client.DecodeAnswer(body, c.shape()); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("decoding a %s answer takes %v objects, want %v", c.name, got, c.want)
		}
	}

	gen, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5,
		NumTypes: 5, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The document and the hex string.
	if got := testing.AllocsPerRun(100, func() { client.ProblemHash(gen) }); got != 2 {
		t.Errorf("ProblemHash takes %v objects, want 2", got)
	}
}
