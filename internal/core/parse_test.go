package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/graphgen"
	"rentmin/internal/rng"
)

// wideConfig is a wide catalog: 60 recipes of 1-3 tasks over 200
// machine types.
var wideConfig = graphgen.Config{
	NumGraphs: 60, MinTasks: 1, MaxTasks: 3, MutatePercent: 1.0, NumTypes: 200,
	CostMin: 1, CostMax: 100, ThroughputMin: 2, ThroughputMax: 12,
}

// documents renders generated Fig. 3, Fig. 6-sized and wide instances,
// and the paper's Section VII example, both compact (json.Marshal) and
// indented (WriteProblem).
func documents(t testing.TB) map[string][]byte {
	t.Helper()
	docs := map[string][]byte{}
	add := func(name string, p *core.Problem) {
		compact, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteProblem(&buf, p); err != nil {
			t.Fatal(err)
		}
		docs[name+"/compact"] = compact
		docs[name+"/indented"] = buf.Bytes()
	}
	example := core.IllustratingExample()
	example.Target = 70
	add("table3", example)
	for _, c := range []struct {
		name string
		cfg  graphgen.Config
	}{
		{"fig3", fig3Config},
		{"fig6", graphgen.Config{NumGraphs: 20, MinTasks: 10, MaxTasks: 20, MutatePercent: 0.3, NumTypes: 8, CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100, ExtraEdgeProb: 0.2}},
		{"wide", wideConfig},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := graphgen.Generate(c.cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			p.Target = 50 * int(seed)
			add(fmt.Sprintf("%s-%d", c.name, seed), p)
		}
	}
	return docs
}

// referenceRead is the encoding/json ingestion the fast decoder must
// agree with: decode with unknown fields disallowed, then validate.
func referenceRead(data []byte) (*core.Problem, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p core.Problem
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("decode problem: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid problem: %w", err)
	}
	return &p, nil
}

// TestParseFastShape checks which inputs take the fast path: every
// document json.Marshal or WriteProblem emits does, and decodes exactly
// as encoding/json does; no fallback seed does.
func TestParseFastShape(t *testing.T) {
	docs := documents(t)
	docs["task-names"] = []byte(taskNamesSeed)
	docs["edge-free"] = []byte(`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}],"edges":[]},{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":10,"cost":5}]},"target_throughput":-4}`)
	for name, doc := range docs {
		fast, ok := core.ParseFast(doc)
		if !ok {
			t.Errorf("%s: fast path rejected the document", name)
			continue
		}
		ref, err := core.DecodeProblem(doc)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: fast path decoded %+v, encoding/json %+v", name, fast, ref)
		}
	}
	for i, seed := range fallbackSeeds {
		if _, ok := core.ParseFast([]byte(seed)); ok {
			t.Errorf("fallback seed %d took the fast path: %s", i, seed)
		}
	}
}

// TestParseProblemErrorsMatchJSON pins every rejection's message to the
// one encoding/json ingestion gives, for inputs that fail to decode and
// inputs that decode but fail validation, in both document shapes.
func TestParseProblemErrorsMatchJSON(t *testing.T) {
	inputs := []string{
		``, `{`, `null`, `[]`, `{}`, `"x"`, `7`,
		`{"bogus": 1}`,
		`{"target_throughput": 1e999}`,
		`{"application": {"graphs": []}, "platform": {"machines": []}, "target_throughput": 0}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":-1,"cost":1}]},"target_throughput":10}`,
		`{"application":{"graphs":[{"tasks":[{"id":1,"type":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":10}`,
		`{"application":{"graphs":[{"name":"c","tasks":[{"id":0,"type":0},{"id":1,"type":0}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":10}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}],"edges":[{"from":0,"to":3}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":10}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":2}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":-1}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":0,"extra":1}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":1}`,
		`{"application":{"graphs":[{"tasks":[{"id":"0","type":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":1}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":1,}`,
		`{"application":{"graphs":[{"tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]}`,
	}
	for _, seed := range fallbackSeeds {
		if !strings.HasSuffix(seed, " x") {
			inputs = append(inputs, seed)
		}
	}
	for _, doc := range documents(t) {
		// Cut each document short, and put one task type out of range.
		inputs = append(inputs, string(doc[:len(doc)/2]))
		inputs = append(inputs, strings.Replace(string(doc), `"type":`, `"type":-`, 1))
		inputs = append(inputs, strings.Replace(string(doc), `"type": `, `"type": 9`, 1))
	}
	for i, in := range inputs {
		_, gotErr := core.ParseProblem([]byte(in))
		_, wantErr := referenceRead([]byte(in))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("input %d (%.60q): error %q, encoding/json %q", i, in, gotErr, wantErr)
		}
	}
}

// TestReadProblemRejectsTrailingData checks that only whitespace may
// follow a document, on the fast path's shape and on the fallback's.
func TestReadProblemRejectsTrailingData(t *testing.T) {
	for name, doc := range documents(t) {
		if _, err := core.ReadProblem(bytes.NewReader(append(bytes.Clone(doc), " \n\t\r\n"...))); err != nil {
			t.Errorf("%s + whitespace: %v", name, err)
		}
		for _, tail := range []string{" garbage", "]", `{"target_throughput": 5}`, "\n{}", "0"} {
			_, err := core.ReadProblem(bytes.NewReader(append(bytes.Clone(doc), tail...)))
			if err == nil || err.Error() != "decode problem: trailing data after the document" {
				t.Errorf("%s + %q: error %v, want trailing data", name, tail, err)
			}
		}
	}
	// A fallback document (an escaped name) with trailing data.
	doc := `{"application":{"graphs":[{"name":"g\u0031","tasks":[{"id":0,"type":0}]}]},"platform":{"machines":[{"throughput":1,"cost":1}]},"target_throughput":1}`
	if _, err := core.ReadProblem(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadProblem(strings.NewReader(doc + " x")); err == nil {
		t.Error("fallback path accepted trailing data")
	}
}

// TestParseProblemSharedStorage checks that each graph's slices of the
// fast path's shared task and edge arrays end at their capacity, so
// appending to one graph leaves the next intact.
func TestParseProblemSharedStorage(t *testing.T) {
	doc, err := json.Marshal(fig3Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.ParseProblem(doc)
	if err != nil {
		t.Fatal(err)
	}
	gs := p.App.Graphs
	for j := range gs {
		if cap(gs[j].Tasks) != len(gs[j].Tasks) || cap(gs[j].Edges) != len(gs[j].Edges) {
			t.Fatalf("graph %d: capacity beyond length (tasks %d/%d, edges %d/%d)",
				j, len(gs[j].Tasks), cap(gs[j].Tasks), len(gs[j].Edges), cap(gs[j].Edges))
		}
	}
	next := gs[1].Tasks[0]
	gs[0].Tasks = append(gs[0].Tasks, core.Task{ID: 99, Type: 99})
	gs[0].Edges = append(gs[0].Edges, core.Edge{From: 99, To: 99})
	if gs[1].Tasks[0] != next || gs[1].Edges[0] == (core.Edge{From: 99, To: 99}) {
		t.Fatal("append to graph 0 overwrote graph 1")
	}
}

// TestParseProblemAllocations pins the fast path's allocations on a
// compact Fig. 3 document: the problem, one array each for graphs,
// machines, tasks and edges, the name string, and Validate's buffer.
func TestParseProblemAllocations(t *testing.T) {
	doc, err := json.Marshal(fig3Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.ParseProblem(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("ParseProblem: %v allocations per call, want at most 7", allocs)
	}
}

// BenchmarkParseProblem measures ParseProblem on compact Fig. 3 and wide
// 200-type documents.
func BenchmarkParseProblem(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  graphgen.Config
	}{{"fig3", fig3Config}, {"wide", wideConfig}} {
		p, err := graphgen.Generate(c.cfg, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		doc, err := json.Marshal(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := core.ParseProblem(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
