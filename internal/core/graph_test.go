package core

import (
	"math"
	"reflect"
	"testing"
)

func TestNewChain(t *testing.T) {
	g := NewChain("c", 2, 0, 1)
	if len(g.Tasks) != 3 {
		t.Fatalf("got %d tasks, want 3", len(g.Tasks))
	}
	if len(g.Edges) != 2 {
		t.Fatalf("got %d edges, want 2", len(g.Edges))
	}
	for i, want := range []int{2, 0, 1} {
		if g.Tasks[i].Type != want {
			t.Errorf("task %d type = %d, want %d", i, g.Tasks[i].Type, want)
		}
		if g.Tasks[i].ID != i {
			t.Errorf("task %d ID = %d, want %d", i, g.Tasks[i].ID, i)
		}
	}
	if err := g.Validate(3); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGraphValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
	}{
		{"empty", Graph{Name: "e"}},
		{"bad id", Graph{Tasks: []Task{{ID: 1, Type: 0}}}},
		{"bad type", Graph{Tasks: []Task{{ID: 0, Type: 5}}}},
		{"negative type", Graph{Tasks: []Task{{ID: 0, Type: -1}}}},
		{"edge out of range", Graph{
			Tasks: []Task{{ID: 0, Type: 0}},
			Edges: []Edge{{From: 0, To: 3}},
		}},
		{"self loop", Graph{
			Tasks: []Task{{ID: 0, Type: 0}},
			Edges: []Edge{{From: 0, To: 0}},
		}},
		{"cycle", Graph{
			Tasks: []Task{{ID: 0, Type: 0}, {ID: 1, Type: 0}},
			Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(3); err == nil {
				t.Errorf("Validate accepted invalid graph %q", tc.name)
			}
		})
	}
}

func TestTypeCounts(t *testing.T) {
	g := NewChain("g", 1, 1, 0, 2, 1)
	got := g.TypeCounts(4)
	want := []int{1, 3, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TypeCounts = %v, want %v", got, want)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3
	g := Graph{
		Tasks: []Task{{ID: 0, Type: 0}, {ID: 1, Type: 0}, {ID: 2, Type: 0}, {ID: 3, Type: 0}},
		Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make([]int, 4)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violated in order %v", e.From, e.To, order)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	p := Platform{Machines: []MachineType{
		{Throughput: 10, Cost: 1},
		{Throughput: 20, Cost: 1},
	}}
	// Diamond: 0(type0) -> {1(type1), 2(type0)} -> 3(type1).
	g := Graph{
		Tasks: []Task{{ID: 0, Type: 0}, {ID: 1, Type: 1}, {ID: 2, Type: 0}, {ID: 3, Type: 1}},
		Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
	got, err := g.CriticalPath(p)
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	// Longest path 0 -> 2 -> 3: 1/10 + 1/10 + 1/20 = 0.25.
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("CriticalPath = %g, want 0.25", got)
	}
}

func TestCriticalPathChainEqualsSum(t *testing.T) {
	p := Platform{Machines: []MachineType{{Throughput: 4, Cost: 1}, {Throughput: 8, Cost: 1}}}
	g := NewChain("g", 0, 1, 0)
	got, err := g.CriticalPath(p)
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	want := 0.25 + 0.125 + 0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CriticalPath = %g, want %g", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewChain("g", 0, 1)
	c := g.Clone()
	c.Tasks[0].Type = 9
	c.Edges[0].To = 9
	if g.Tasks[0].Type == 9 || g.Edges[0].To == 9 {
		t.Error("Clone shares storage with the original")
	}
}
