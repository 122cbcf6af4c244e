package client

import (
	"encoding/json"
	"testing"

	"rentmin"
)

// fuzzSeedProblems are the problems of the seed inputs of core's
// FuzzAppendProblem: the Table III example, three draws each of the
// Fig. 3, Fig. 6 and wide-catalog generators, the task-names document
// under every seed name, and two degenerate documents.
func fuzzSeedProblems(t *testing.T) []*rentmin.Problem {
	t.Helper()
	example := rentmin.IllustratingExample()
	example.Target = 70
	out := []*rentmin.Problem{example}
	for _, cfg := range []rentmin.GenConfig{
		{NumGraphs: 20, MinTasks: 5, MaxTasks: 8, MutatePercent: 0.5, NumTypes: 5, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100},
		{NumGraphs: 20, MinTasks: 10, MaxTasks: 20, MutatePercent: 0.3, NumTypes: 8, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100, ExtraEdgeProb: 0.2},
		{NumGraphs: 60, MinTasks: 1, MaxTasks: 3, MutatePercent: 1.0, NumTypes: 200, CostMin: 1, CostMax: 100, ThroughputMin: 2, ThroughputMax: 12},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := rentmin.Generate(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			p.Target = 50 * int(seed)
			out = append(out, p)
		}
	}
	decode := func(doc string) *rentmin.Problem {
		var p rentmin.Problem
		if err := json.Unmarshal([]byte(doc), &p); err != nil {
			t.Fatal(err)
		}
		return &p
	}
	const taskNames = `{"application":{"name":"a","graphs":[{"name":"g","tasks":[{"id":0,"type":0,"name":"t0"},{"id":1,"type":1,"name":"t1"}],"edges":[{"from":0,"to":1}]}]},"platform":{"name":"p","machines":[{"name":"P1","throughput":10,"cost":5},{"throughput":20,"cost":9}]},"target_throughput":3}`
	out = append(out, decode(taskNames))
	for _, name := range []string{"é", "<", ">", "&", `"`, `\`, "\n", "\x7f", " ", "\xff", "a\xc3"} {
		p := decode(taskNames)
		p.App.Name, p.Platform.Name = name, name+name
		for i := range p.App.Graphs {
			g := &p.App.Graphs[i]
			g.Name = name
			for j := range g.Tasks {
				g.Tasks[j].Name = name
			}
		}
		for i := range p.Platform.Machines {
			p.Platform.Machines[i].Name = name
		}
		out = append(out, p)
	}
	return append(out,
		decode(`{"application":{"graphs":[]},"platform":{"machines":[]},"target_throughput":-7}`),
		decode(`{"application":{"graphs":[{"tasks":[],"edges":[]}]},"platform":{},"target_throughput":0}`))
}

// TestProblemHashOfDocument: the hash a Worker dispatches under, taken
// in a pooled buffer, is the hash of the document ProblemHash returns.
func TestProblemHashOfDocument(t *testing.T) {
	for i, p := range fuzzSeedProblems(t) {
		want, _, err := ProblemHash(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := problemHash(p); got != want {
			t.Errorf("seed %d: problemHash %s, ProblemHash %s", i, got, want)
		}
	}
}

// TestProblemHashAllocs: hashing a problem for a dispatch allocates only
// the returned hex string, not the document.
func TestProblemHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p := fig3Problem(t)
	if got := testing.AllocsPerRun(100, func() { problemHash(p) }); got != 1 {
		t.Errorf("problemHash takes %v objects, want 1", got)
	}
}
