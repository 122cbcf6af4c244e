package client_test

// Wire-compatibility tests: the JSON key sets of the response types, and
// a rentmin.Solution carried across the coordinator→worker hop (the
// daemon's wire form, then Solution.ToSolution) without loss. Renaming or
// dropping any tag of the embedded search counters fails them.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// fullStats sets every search counter to a distinct non-zero value.
func fullStats() rentmin.SearchStats {
	return rentmin.SearchStats{
		Nodes:        11,
		LPIterations: 222,
		LPSolves:     33,
		WarmLPSolves: 30,
		Cuts:         7,
		CutRounds:    4,
		Presolve: rentmin.PresolveStats{
			RowsRemoved:     5,
			ColsFixed:       6,
			BoundsTightened: 8,
			CoeffsReduced:   9,
		},
	}
}

// requireAllSet fails when any field of v (recursing into embedded and
// nested structs) is zero, so a key set checked on v cannot pass only
// because an omitempty field was left empty.
func requireAllSet(t *testing.T, v interface{}) {
	t.Helper()
	var walk func(path string, rv reflect.Value)
	walk = func(path string, rv reflect.Value) {
		for i := 0; i < rv.NumField(); i++ {
			f, fv := rv.Type().Field(i), rv.Field(i)
			if fv.IsZero() {
				t.Fatalf("%s.%s is zero; populate every field", path, f.Name)
			}
			if fv.Kind() == reflect.Struct && f.Type != reflect.TypeOf(time.Time{}) {
				walk(path+"."+f.Name, fv)
			}
		}
	}
	rv := reflect.ValueOf(v)
	walk(rv.Type().Name(), rv)
}

// objectKeys marshals v, which must encode as a JSON object, and returns
// its keys sorted plus the raw value under each key.
func objectKeys(t *testing.T, v interface{}) ([]string, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s is not a JSON object: %v", data, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, m
}

func sorted(keys ...string) []string {
	sort.Strings(keys)
	return keys
}

var (
	searchKeys   = []string{"nodes", "lp_iterations", "lp_solves", "warm_lp_solves", "cuts", "cut_rounds", "presolve"}
	presolveKeys = sorted("rows_removed", "cols_fixed", "bounds_tightened", "coeffs_reduced")
)

func TestWireKeySets(t *testing.T) {
	alloc := &rentmin.Allocation{GraphThroughput: []int{40, 30}, Machines: []int{1, 2, 3}, Cost: 124}
	inc := 130.0
	sol := client.Solution{
		Allocation:  *alloc,
		Proven:      true,
		Bound:       123.5,
		SearchStats: fullStats(),
		ElapsedMs:   1.5,
		Error:       "x",
		Stats: &client.SolveStats{
			TraceID:             "t",
			Worker:              "w",
			QueueWaitMs:         0.25,
			SolveMs:             1.5,
			Incumbents:          []client.IncumbentPoint{{AtMs: 0.1, Cost: 130}},
			Rounds:              []client.RoundPoint{{Round: 1, AtMs: 0.2, Bound: 120, Incumbent: &inc, Frontier: 2, Nodes: 3}},
			TrajectoryTruncated: true,
			Phases:              []client.PhaseTiming{{Name: "solve", StartMs: 0.1, DurMs: 1.4}},
		},
	}
	res := client.SessionResolve{
		Seq:         3,
		Kind:        "target_change",
		Status:      "optimal",
		Allocation:  alloc,
		Warm:        true,
		RootLPWarm:  true,
		Churn:       4,
		SolveMs:     2.5,
		SearchStats: fullStats(),
		Error:       "x",
	}
	dbg := client.DebugSolve{
		TraceID:     "t",
		Endpoint:    "batch",
		Item:        2,
		Worker:      "w",
		Start:       time.Unix(1, 0),
		QueueWaitMs: 0.25,
		SolveMs:     1.5,
		Cost:        124,
		Proven:      true,
		Error:       "x",
		SearchStats: fullStats(),
		Incumbents:  1,
		Rounds:      2,
	}

	cases := []struct {
		name string
		v    interface{}
		want []string
	}{
		{"Solution", sol, append([]string{"allocation", "proven", "bound", "elapsed_ms", "error", "stats"}, searchKeys...)},
		{"SessionResolve", res, append([]string{"seq", "kind", "status", "allocation", "warm", "root_lp_warm", "churn", "solve_ms", "error"}, searchKeys...)},
		{"DebugSolve", dbg, append([]string{"trace_id", "endpoint", "item", "worker", "start", "queue_wait_ms", "solve_ms", "cost", "proven", "error", "incumbents", "rounds"}, searchKeys...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			requireAllSet(t, c.v)
			top, m := objectKeys(t, c.v)
			if want := sorted(c.want...); !reflect.DeepEqual(top, want) {
				t.Errorf("keys\n got %v\nwant %v", top, want)
			}
			if ps, _ := objectKeys(t, m["presolve"]); !reflect.DeepEqual(ps, presolveKeys) {
				t.Errorf("presolve keys\n got %v\nwant %v", ps, presolveKeys)
			}
		})
	}

	// The stats block carries attribution, timing and the trajectory
	// only; the counters live on the enclosing Solution.
	requireAllSet(t, *sol.Stats)
	got, _ := objectKeys(t, sol.Stats)
	want := sorted("trace_id", "worker", "queue_wait_ms", "solve_ms", "incumbents", "rounds", "trajectory_truncated", "phases")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats keys\n got %v\nwant %v", got, want)
	}

	// presolve is present even when nothing was reduced.
	_, m := objectKeys(t, client.Solution{})
	if ps, _ := objectKeys(t, m["presolve"]); !reflect.DeepEqual(ps, presolveKeys) {
		t.Errorf("zero solution presolve keys = %v, want %v", ps, presolveKeys)
	}
}

// fixedWorker answers every solve with one canned solution, standing in
// for a worker's solver behind a coordinator daemon.
type fixedWorker struct{ sol rentmin.Solution }

func (w fixedWorker) Name() string                              { return "fixed" }
func (w fixedWorker) Capacity(ctx context.Context) (int, error) { return 1, nil }
func (w fixedWorker) Solve(ctx context.Context, p *rentmin.Problem, opts *rentmin.SolveOptions) (rentmin.Solution, error) {
	return w.sol, nil
}

func TestSolutionSurvivesWireHop(t *testing.T) {
	want := rentmin.Solution{
		Alloc:       rentmin.Allocation{GraphThroughput: []int{40, 30}, Machines: []int{1, 2, 3}, Cost: 124},
		Proven:      true,
		Bound:       123.5,
		SearchStats: fullStats(),
		Elapsed:     1500 * time.Microsecond,
	}
	ctx := context.Background()
	pool := rentmin.NewElasticSolverPool(nil)
	if _, err := pool.AddRemoteWorker(ctx, fixedWorker{want}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{SolverPool: pool})
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	c := client.New(hs.URL)

	p := rentmin.IllustratingExample()
	p.Target = 70
	ws, err := c.Solve(ctx, p, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	got, err := ws.ToSolution()
	if err != nil {
		t.Fatalf("ToSolution: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("solution changed across the wire\n got %+v\nwant %+v", got, want)
	}

	recs, err := c.DebugSolves(ctx, 1)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if len(recs.Solves) != 1 || recs.Solves[0].SearchStats != want.SearchStats {
		t.Errorf("flight recorder counters = %+v, want %+v", recs.Solves, want.SearchStats)
	}
}
