package core

import (
	"bytes"
	"testing"
)

// FuzzReadProblem hardens the JSON ingestion path the service endpoints
// will sit on: arbitrary input must either decode into a fully validated
// problem or return an error — never panic, never hand back a problem
// that fails its own Validate, and never accept a graph whose topological
// order is not a permutation with every edge pointing forward.
func FuzzReadProblem(f *testing.F) {
	// Seed corpus: a real problem, then structurally interesting mutations.
	var buf bytes.Buffer
	if err := WriteProblem(&buf, IllustratingExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
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
		p, err := ReadProblem(bytes.NewReader(data))
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
		NewCostModel(p)
	})
}
