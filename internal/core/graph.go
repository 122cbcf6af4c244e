package core

import (
	"fmt"
)

// Task is one node of a recipe graph. Type is a 0-based index into the
// platform machine types (the paper writes types 1..Q; we use 0..Q-1).
type Task struct {
	// ID identifies the task inside its graph. Tasks must be numbered
	// 0..len(Tasks)-1 and stored at the matching slice index.
	ID int `json:"id"`
	// Type is the task/processor type required to run this task.
	Type int `json:"type"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
}

// Edge is a precedence constraint between two tasks of the same graph,
// identified by task IDs: To cannot start on a data item before From has
// finished processing that item.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Graph is one recipe: a DAG of typed tasks that produces the
// application's result. Alternative graphs of the same application
// produce the same result, possibly using different task types
// (e.g. a GPU codec instead of a CPU codec).
type Graph struct {
	Name  string `json:"name,omitempty"`
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges,omitempty"`
}

// NewChain builds a linear graph whose i-th task has the i-th given type.
// Task IDs are assigned 0..len(types)-1 and edges chain them in order.
func NewChain(name string, types ...int) Graph {
	g := Graph{Name: name, Tasks: make([]Task, len(types))}
	for i, q := range types {
		g.Tasks[i] = Task{ID: i, Type: q}
		if i > 0 {
			g.Edges = append(g.Edges, Edge{From: i - 1, To: i})
		}
	}
	return g
}

// Clone returns a deep copy of the graph.
func (g Graph) Clone() Graph {
	c := Graph{Name: g.Name}
	c.Tasks = append([]Task(nil), g.Tasks...)
	c.Edges = append([]Edge(nil), g.Edges...)
	return c
}

// Validate checks task numbering, type ranges, edge endpoints and
// acyclicity. numTypes is the platform's Q; pass a negative value to skip
// the type-range check.
func (g Graph) Validate(numTypes int) error { return g.validate(numTypes, nil) }

// validate is Validate with the acyclicity check running in buf, grown
// when it is too small (see topoOrder).
func (g Graph) validate(numTypes int, buf []int) error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("graph %q: no tasks", g.Name)
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("graph %q: task at index %d has ID %d (IDs must equal indices)", g.Name, i, t.ID)
		}
		if t.Type < 0 || (numTypes >= 0 && t.Type >= numTypes) {
			return fmt.Errorf("graph %q: task %d has type %d outside [0,%d)", g.Name, i, t.Type, numTypes)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Tasks) || e.To < 0 || e.To >= len(g.Tasks) {
			return fmt.Errorf("graph %q: edge %d->%d out of range", g.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph %q: self-loop on task %d", g.Name, e.From)
		}
	}
	if _, err := g.topoOrder(buf); err != nil {
		return fmt.Errorf("graph %q: %w", g.Name, err)
	}
	return nil
}

// TypeCounts returns n_jq for this graph: counts[q] is the number of tasks
// of type q, for q in [0,numTypes).
func (g Graph) TypeCounts(numTypes int) []int {
	counts := make([]int, numTypes)
	g.countTypes(counts)
	return counts
}

// countTypes adds each task of a type in [0,len(counts)) to counts.
func (g *Graph) countTypes(counts []int) {
	for _, t := range g.Tasks {
		if t.Type >= 0 && t.Type < len(counts) {
			counts[t.Type]++
		}
	}
}

// TypesUsed returns the sorted set of types that appear in the graph.
func (g Graph) TypesUsed() []int {
	seen := map[int]bool{}
	max := -1
	for _, t := range g.Tasks {
		seen[t.Type] = true
		if t.Type > max {
			max = t.Type
		}
	}
	var used []int
	for q := 0; q <= max; q++ {
		if seen[q] {
			used = append(used, q)
		}
	}
	return used
}

// Successors returns the adjacency list succ[id] = IDs of direct successors.
func (g Graph) Successors() [][]int {
	succ := make([][]int, len(g.Tasks))
	for _, e := range g.Edges {
		succ[e.From] = append(succ[e.From], e.To)
	}
	return succ
}

// InDegrees returns the number of direct predecessors of every task.
func (g Graph) InDegrees() []int {
	deg := make([]int, len(g.Tasks))
	for _, e := range g.Edges {
		deg[e.To]++
	}
	return deg
}

// TopoOrder returns a topological order of task IDs, or an error if the
// graph has a cycle. It runs Kahn's algorithm with a FIFO queue seeded
// with the sources in ID order, visiting each task's successors in edge
// order. One buffer holds all its state: the order (which doubles as the
// queue), the in-degrees, and the successor lists in compressed sparse
// row form (row offsets, then successors).
func (g Graph) TopoOrder() ([]int, error) { return g.topoOrder(nil) }

// topoBufLen is the length of the buffer topoOrder works in.
func (g Graph) topoBufLen() int { return 3*len(g.Tasks) + 1 + len(g.Edges) }

// topoOrder is TopoOrder working in buf, which it allocates when buf is
// shorter than topoBufLen. The order it returns aliases buf, so one
// buffer serves many graphs in turn.
func (g Graph) topoOrder(buf []int) ([]int, error) {
	n, m := len(g.Tasks), len(g.Edges)
	if len(buf) < g.topoBufLen() {
		buf = make([]int, g.topoBufLen())
	}
	order := buf[:0:n]
	deg := buf[n : 2*n]
	start := buf[2*n : 3*n+1]
	succ := buf[3*n+1 : 3*n+1+m]
	clear(buf[n : 3*n+1])
	for _, e := range g.Edges {
		deg[e.To]++
		start[e.From]++
	}
	for id := 1; id < n; id++ {
		start[id] += start[id-1]
	}
	start[n] = m
	// start[id] now ends row id; filling backwards moves it to the row's
	// beginning and keeps each row in edge order.
	for k := m - 1; k >= 0; k-- {
		e := g.Edges[k]
		start[e.From]--
		succ[start[e.From]] = e.To
	}
	for id, d := range deg {
		if d == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, s := range succ[start[id]:start[id+1]] {
			deg[s]--
			if deg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cycle detected (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// CriticalPath returns the length of the longest path through the graph
// when a task of type q takes 1/r_q time units on an idle machine. This is
// the minimum latency of one data item, a quantity the stream simulator
// checks against.
func (g Graph) CriticalPath(platform Platform) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	succ := g.Successors()
	dur := func(id int) float64 {
		q := g.Tasks[id].Type
		return 1.0 / float64(platform.Machines[q].Throughput)
	}
	finish := make([]float64, len(g.Tasks))
	var best float64
	for _, id := range order {
		f := finish[id] + dur(id)
		if f > best {
			best = f
		}
		for _, s := range succ[id] {
			if f > finish[s] {
				finish[s] = f
			}
		}
	}
	return best, nil
}
