package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/rng"
)

// FuzzReadProblem hardens the JSON ingestion path the service endpoints
// sit on: arbitrary input must either decode into a fully validated
// problem or return an error — never panic, never hand back a problem
// that fails its own Validate, and never accept a graph whose topological
// order is not a permutation with every edge pointing forward. It also
// holds the fast schema decoder to the encoding/json reference: whatever
// the fast path accepts, the reference accepts too and decodes to a
// deeply equal problem.
func FuzzReadProblem(f *testing.F) {
	// Seed corpus: real problems, compact and indented, then structurally
	// interesting mutations and one seed per fast-path fallback case.
	for _, p := range []*core.Problem{core.IllustratingExample(), fig3Problem(f)} {
		compact, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
		var buf bytes.Buffer
		if err := core.WriteProblem(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(taskNamesSeed))
	for _, seed := range fallbackSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`{"target_throughput": 70}`,
		`{"application": {"graphs": []}, "platform": {"machines": []}, "target_throughput": 0}`,
		`{"application": {"graphs": [{"name": "g", "tasks": [{"type": -1}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "g", "tasks": [{"type": 99}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "g", "tasks": [{"type": 0}],
		  "edges": [{"from": 0, "to": 7}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "g", "tasks": [{"type": 0}]}]},
		  "platform": {"machines": [{"throughput": 0, "cost": -2}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "g", "tasks": [{"type": 0}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": -4}`,
		`{"application": {"graphs": [{"name": "cycle", "tasks": [{"id": 0, "type": 0}, {"id": 1, "type": 0}, {"id": 2, "type": 0}],
		  "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 2, "to": 1}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "self-loop", "tasks": [{"id": 0, "type": 0}, {"id": 1, "type": 0}],
		  "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 1}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}]}, "target_throughput": 3}`,
		`{"application": {"graphs": [{"name": "duplicate-edge", "tasks": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0}],
		  "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 0, "to": 1}, {"from": 0, "to": 2}]}]},
		  "platform": {"machines": [{"throughput": 10, "cost": 5}, {"throughput": 20, "cost": 9}]}, "target_throughput": 3}`,
		`{"unknown_field": 1}`,
		`{"target_throughput": 1e999}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := core.ParseFast(data); ok {
			ref, err := core.DecodeProblem(data)
			if err != nil {
				t.Fatalf("fast path accepted a document encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("fast path decoded %+v, encoding/json %+v", fast, ref)
			}
		}
		p, err := core.ReadProblem(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("nil problem without error")
		}
		// ReadProblem promises a validated problem; re-validating must
		// succeed, and the compiled views must be constructible.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted problem fails Validate: %v", err)
		}
		for j, g := range p.App.Graphs {
			order, err := g.TopoOrder()
			if err != nil {
				t.Fatalf("graph %d: accepted but TopoOrder fails: %v", j, err)
			}
			pos := make([]int, len(g.Tasks))
			for i := range pos {
				pos[i] = -1
			}
			for i, id := range order {
				if id < 0 || id >= len(g.Tasks) || pos[id] >= 0 {
					t.Fatalf("graph %d: order %v is not a permutation of %d tasks", j, order, len(g.Tasks))
				}
				pos[id] = i
			}
			if len(order) != len(g.Tasks) {
				t.Fatalf("graph %d: order has %d of %d tasks", j, len(order), len(g.Tasks))
			}
			for _, e := range g.Edges {
				if pos[e.From] >= pos[e.To] {
					t.Fatalf("graph %d: edge %d->%d points backwards in order %v", j, e.From, e.To, order)
				}
			}
		}
		core.NewCostModel(p)
	})
}

// fallbackSeeds each hold one construct outside the fast decoder's shape,
// in an otherwise valid document, so ParseProblem falls back to
// encoding/json for it (TestParseFastShape checks that it does).
var fallbackSeeds = []string{
	`{"application":{"graphs":[{"name":"g\u0031","tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"name":"gé","tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"name":"P×1","throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"ID":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"Type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}],"edges":null}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":1.0,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":1e2}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":-0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":01}]},"target_throughput":3}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":12345678901234567890}`,
	`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":3} x`,
}

// taskNamesSeed is a valid document with task names, which the fast
// decoder reads.
const taskNamesSeed = `{"application":{"name":"a","graphs":[{"name":"g","tasks":[{"id":0,"type":0,"name":"t0"},{"id":1,"type":1,"name":"t1"}],"edges":[{"from":0,"to":1}]}]},"platform":{"name":"p","machines":[{"name":"P1","throughput":10,"cost":5},{"throughput":20,"cost":9}]},"target_throughput":3}`

// fig3Config is the paper's Fig. 3 setting: 20 recipes of 5-8 tasks, 50%
// mutation, 5 machine types.
var fig3Config = graphgen.Config{
	NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5, NumTypes: 5,
	CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100,
}

// fig3Problem draws one Fig. 3 instance.
func fig3Problem(tb testing.TB) *core.Problem {
	tb.Helper()
	p, err := graphgen.Generate(fig3Config, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	p.Target = 100
	return p
}
