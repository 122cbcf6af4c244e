package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// TestCheckerCountsTamperedAnswers feeds the checker one good answer and
// five tampered ones; each tampered answer must be counted as failed.
func TestCheckerCountsTamperedAnswers(t *testing.T) {
	p := rentmin.IllustratingExample()
	p.Target = 70
	sol, err := rentmin.Solve(p, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := rentmin.NewCostModel(p)
	want := sol.Alloc.Cost
	good := func() *rentmin.Allocation { a := sol.Alloc.Clone(); return &a }

	offByOne := good()
	offByOne.Cost++

	// One machine short of its demand, with the stored cost consistent
	// with the shortened machine counts, so only the capacity check can
	// catch it.
	short := good()
	for q, n := range short.Machines {
		if n > 0 {
			short.Machines[q]--
			short.Cost -= int64(p.Platform.Machines[q].Cost)
			break
		}
	}

	// A feasible, self-consistent allocation that is not the optimum:
	// what a session event that drifted from its cold oracle looks like.
	rho := append([]int(nil), sol.Alloc.GraphThroughput...)
	rho[0] += 10
	drift := m.NewAllocation(rho)
	event := client.SessionResolve{Status: "optimal", Allocation: &drift}

	cases := []struct {
		name string
		a    answer
		ok   bool
	}{
		{"good", answer{alloc: good(), proven: true}, true},
		{"cost off by one", answer{alloc: offByOne, proven: true}, false},
		{"machine below demand", answer{alloc: short, proven: true}, false},
		{"not proven", answer{alloc: good(), proven: false}, false},
		{"item error", solutionAnswer(&client.Solution{Error: "not solved: batch deadline exceeded"}), false},
		{"session cost differs from cold oracle", resolveAnswer(&event), false},
	}
	var tl tally
	for _, c := range cases {
		err := checkAnswer(m, p.Target, want, c.a)
		if tl.record(err) != c.ok {
			t.Errorf("%s: checker said %v", c.name, err)
		}
	}
	if tl.attempted != 6 || tl.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5", tl.attempted, tl.failed)
	}

	// A transport failure fails every item of the op.
	r := &runner{pl: &plan{}}
	r.check(op{kind: opBatch, items: []int{0, 1, 2}}, outcome{err: errors.New("connection reset")})
	if r.tally.failed != 3 {
		t.Fatalf("failed batch counted %d items, want 3", r.tally.failed)
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload on its shortened inputs, one pass each,
// untraced and traced. Every metric BENCHMARK.json names must be emitted,
// finite, with no failed op; in the traced run the served search
// counters must equal the ladder's (a mismatch counts as a failure).
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	spans := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(context.Background(), config{workload: w.name, seed: 1, trace: traced, spansDir: spans}, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, rec.Failed, rec.Attempted, rec.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rec.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == math.MaxFloat64:
					t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(spans, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// fingerprint lists, op by op, the ProblemHash and target of every item
// (for events: of the session's start problem, plus the event).
func fingerprint(t *testing.T, pl *plan) string {
	t.Helper()
	var b strings.Builder
	for _, o := range pl.ops {
		if o.kind == opEvent {
			sp := pl.sessions[o.sess]
			h, _, err := client.ProblemHash(sp.start)
			if err != nil {
				t.Fatal(err)
			}
			ev, _ := json.Marshal(sp.wire[o.step])
			b.WriteString(h + " " + string(ev) + "\n")
			continue
		}
		for _, i := range o.items {
			h, _, err := client.ProblemHash(pl.inputs[i].p)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(h + " " + strconv.Itoa(pl.inputs[i].p.Target) + "\n")
		}
	}
	return b.String()
}

// TestSeedDeterminesInputs checks that a plan is a pure function of
// (workload, seed) — the same seed gives identical documents, another
// seed changes them — and that the default seed's documents pass the
// daemon's default admission limits.
func TestSeedDeterminesInputs(t *testing.T) {
	d := startDaemon(server.Config{})
	defer d.close()
	c := client.New(d.url)
	ctx := context.Background()
	for _, w := range workloads {
		a, err := w.build(1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.build(1, false)
		other, _ := w.build(2, false)
		if fa, fb := fingerprint(t, a), fingerprint(t, b); fa != fb {
			t.Errorf("%s: seed 1 built two different op lists", w.name)
		}
		if fingerprint(t, a) == fingerprint(t, other) {
			t.Errorf("%s: seeds 1 and 2 built the same op list", w.name)
		}
		var docs []*rentmin.Problem
		for _, in := range a.inputs {
			docs = append(docs, in.p)
		}
		for _, sp := range a.sessions {
			grown := sp.start.Clone() // the largest state: after the arrival
			for _, ev := range sp.events {
				if ev.Graph != nil {
					grown.App.Graphs = append(grown.App.Graphs, *ev.Graph)
				}
			}
			docs = append(docs, sp.start, grown)
		}
		for _, p := range docs {
			hash, doc, err := client.ProblemHash(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.UploadProblem(ctx, hash, doc); err != nil {
				t.Errorf("%s: daemon refused a document: %v", w.name, err)
			}
		}
	}
}

// TestCompare checks the quartiles against Python's statistics.quantiles
// and each verdict of -compare.
func TestCompare(t *testing.T) {
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
	steady := func(v float64) [3]float64 { return [3]float64{0.99 * v, v, 1.01 * v} }
	lower := bound{better: "lower", share: 0.1}
	higher := bound{better: "higher", share: 0.1}
	for _, c := range []struct {
		a, b [3]float64
		bd   bound
		want string
	}{
		{steady(100), steady(105), lower, "within bound"},
		{steady(100), steady(120), lower, "worse"},
		{steady(100), steady(80), lower, "better"},
		{steady(100), steady(80), higher, "worse"},
		{steady(100), [3]float64{70, 100, 130}, lower, "unresolved"},
		{steady(100), steady(300), bound{better: "lower"}, "-"},
	} {
		if got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("verdict(%v, %v, %+v) = %s, want %s", c.a, c.b, c.bd, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var buf bytes.Buffer
		for _, v := range values {
			rec := record{Workload: "paper-mix", result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, 10.1, 9.9, 10, 10.05)
	b := write("b.json", 14, 14.1, 13.9, 14, 14.05)
	var out bytes.Buffer
	if code := run([]string{"-compare", "-benchmark", filepath.Join("..", "..", "BENCHMARK.json"), a, b}, &out, &out); code != 0 {
		t.Fatalf("compare exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Fatalf("a 40%% slower median was not reported worse:\n%s", out.String())
	}
}

// TestJoinBoolValues covers the "--trace 0" spelling the flag package
// does not accept on its own.
func TestJoinBoolValues(t *testing.T) {
	got := strings.Join(joinBoolValues([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace", "0"}), " ")
	if want := "--workload x --trace=1 --seed 3 -trace=0"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
