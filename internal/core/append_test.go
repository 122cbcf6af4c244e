package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"rentmin/internal/core"
)

// requireMarshal fails unless AppendProblem writes exactly what
// json.Marshal writes for p, after a prefix it must leave alone.
func requireMarshal(t *testing.T, p *core.Problem) {
	t.Helper()
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := core.AppendProblem([]byte("prefix"), p)
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendProblem wrote\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
	}
	for i := range p.App.Graphs {
		want, err := json.Marshal(p.App.Graphs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := core.AppendGraph(nil, &p.App.Graphs[i]); !bytes.Equal(got, want) {
			t.Fatalf("AppendGraph wrote\n%s\njson.Marshal\n%s", got, want)
		}
	}
}

// escapedNames are names json.Marshal does not write as they are.
var escapedNames = []string{"<", ">", "&", `"`, `\`, "\n", "\x7f", "é", " ", "\xff", "a\xc3"}

// FuzzAppendProblem holds AppendProblem to json.Marshal: for every
// document Scanner accepts, the decoded problem is written byte for byte
// as json.Marshal writes it, and so are copies of it with names that need
// escaping and with nil slices.
func FuzzAppendProblem(f *testing.F) {
	for _, data := range documents(f) {
		f.Add(data, "")
	}
	f.Add([]byte(taskNamesSeed), "é")
	for _, name := range escapedNames {
		f.Add([]byte(taskNamesSeed), name)
	}
	f.Add([]byte(`{"application":{"graphs":[]},"platform":{"machines":[]},"target_throughput":-7}`), "")
	f.Add([]byte(`{"application":{"graphs":[{"tasks":[],"edges":[]}]},"platform":{},"target_throughput":0}`), "<")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		p, ok := core.ParseFast(data)
		if !ok {
			return
		}
		requireMarshal(t, p)
		if name == "" {
			return
		}
		q := p.Clone()
		q.App.Name, q.Platform.Name = name, name+name
		for i := range q.App.Graphs {
			g := &q.App.Graphs[i]
			g.Name = name
			for j := range g.Tasks {
				g.Tasks[j].Name = name
			}
		}
		for i := range q.Platform.Machines {
			q.Platform.Machines[i].Name = name
		}
		requireMarshal(t, q)
		// Nil slices: json.Marshal writes null, or omits the edges.
		for i := range q.App.Graphs {
			q.App.Graphs[i].Tasks, q.App.Graphs[i].Edges = nil, nil
		}
		q.Platform.Machines = nil
		requireMarshal(t, q)
		q.App.Graphs = nil
		requireMarshal(t, q)
	})
}

func TestAppendProblemExtremes(t *testing.T) {
	p := core.IllustratingExample()
	for _, target := range []int{0, -1, math.MaxInt, math.MinInt} {
		p.Target = target
		p.Platform.Machines[0].Cost = target
		p.App.Graphs[0].Tasks[0].Type = target
		p.App.Graphs[0].Edges[0].To = target
		requireMarshal(t, p)
	}
	requireMarshal(t, &core.Problem{})
}

// TestFieldRejectsRepeatedLateKey repeats the ninth key and later ones
// of a 32-key object: each repeat must fail the scan, as the first eight
// do.
func TestFieldRejectsRepeatedLateKey(t *testing.T) {
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	scan := func(order []int) bool {
		var doc []byte
		for _, i := range order {
			if doc == nil {
				doc = append(doc, '{')
			} else {
				doc = append(doc, ',')
			}
			doc = append(doc, `"`+keys[i]+`":1`...)
		}
		doc = append(doc, '}')
		sc := core.NewScanner(doc)
		var seen uint32
		for more := sc.Open('{'); more; more = sc.More('}') {
			sc.Field(&seen, keys...)
			sc.Int()
		}
		return sc.End()
	}
	all := make([]int, 32)
	for i := range all {
		all[i] = i
	}
	if !scan(all) {
		t.Fatal("an object with each of 32 keys once fails the scan")
	}
	for _, k := range []int{0, 7, 8, 9, 15, 16, 31} {
		if scan(append(all[:k+1:k+1], k)) {
			t.Errorf("an object repeating key %d passes the scan", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Field took 33 keys")
		}
	}()
	sc := core.NewScanner([]byte(`"k0":1`))
	var seen uint32
	sc.Field(&seen, append(keys, "k32")...)
}

func TestScannerBoolAndFloat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
		ok   bool
	}{
		{"true", true, true},
		{" false", false, true},
		{"fals", false, false},
		{"null", false, false},
		{"1", false, false},
	} {
		sc := core.NewScanner([]byte(c.in))
		if got := sc.Bool(); got != c.want || sc.End() != c.ok {
			t.Errorf("Bool(%q) = %v, ok %v; want %v, ok %v", c.in, got, sc.End(), c.want, c.ok)
		}
	}
	for _, in := range []string{"0", "-0", "1", "-12.5", "0.25", "1e21", "1E+2", "1e-07", "123456789.123456789", "5e-324", "1.7976931348623157e308"} {
		var want float64
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		sc := core.NewScanner([]byte(in))
		if got := sc.Float(); !sc.End() || got != want || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("Float(%q) = %v, ok %v; want %v", in, got, sc.End(), want)
		}
	}
	// strconv.ParseFloat takes most of these; JSON takes none.
	for _, in := range []string{"", "-", "Inf", "+Inf", "NaN", "0x1p3", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1_000", "1e999", "-1e999", `"1"`} {
		sc := core.NewScanner([]byte(in))
		if got := sc.Float(); sc.End() {
			t.Errorf("Float(%q) = %v, want a failed scan", in, got)
		}
	}
}
