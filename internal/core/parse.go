package core

import (
	"fmt"
	"math"
	"strings"
)

// ParseProblem decodes one problem document and validates it.
//
// A document in the shape json.Marshal and WriteProblem emit takes a
// hand-written decoder for the problem schema (parseFast). Every other
// input, and every input with an error, goes to the encoding/json decoder
// (decodeProblem), which defines what a document means and words every
// decode error. Either way the problem then passes Validate, and it
// shares no memory with data.
func ParseProblem(data []byte) (*Problem, error) {
	p, ok := parseFast(data)
	if !ok {
		var err error
		if p, err = decodeProblem(data); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid problem: %w", err)
	}
	return p, nil
}

// parseFast decodes data when it has the shape json.Marshal and
// WriteProblem emit, and reports false for any other input:
//
//   - strings of printable ASCII without escapes;
//   - integer literals without fraction, exponent, leading zero or "-0"
//     that fit in an int;
//   - the schema's keys in exact case, each at most once per object;
//   - no null, true or false;
//   - nothing but whitespace after the document.
//
// On such input encoding/json with unknown fields disallowed returns the
// same problem. The decoder reads the input twice. The sizing pass counts
// graphs, machines, tasks, edges and name bytes; the fill pass then stores
// all the tasks of the problem in one array of exactly that size, all its
// edges in another, and every name in one string. Each graph holds a
// slice of the shared arrays whose capacity ends at its last element, so
// an append to one graph never writes into the next.
func parseFast(data []byte) (*Problem, bool) {
	d := fastDecoder{data: data, ok: true}
	var sized Problem
	d.document(&sized)
	if !d.ok {
		return nil, false
	}
	d.graphs.alloc()
	d.machines.alloc()
	d.tasks.alloc()
	d.edges.alloc()
	d.names.Grow(d.nameLen)
	d.pos, d.fill = 0, true
	p := new(Problem)
	d.document(p)
	return p, d.ok
}

// arena is the storage of one element type. On the sizing pass buf is
// nil and every element goes to scratch; n counts them. alloc then makes
// buf exactly n long, and the fill pass hands out its slots in order.
type arena[T any] struct {
	buf     []T
	n       int
	scratch T
}

func (a *arena[T]) alloc() { a.buf, a.n = make([]T, a.n), 0 }

// next returns where the next element goes.
func (a *arena[T]) next() *T {
	a.n++
	if a.buf == nil {
		return &a.scratch
	}
	return &a.buf[a.n-1]
}

// since returns the elements stored from index start on, with capacity
// ending at the last of them; nil on the sizing pass.
func (a *arena[T]) since(start int) []T {
	if a.buf == nil {
		return nil
	}
	return a.buf[start:a.n:a.n]
}

// fastDecoder holds parseFast's state. ok falls to false at the first
// byte outside the accepted shape, and every reader does nothing after.
type fastDecoder struct {
	data []byte
	pos  int
	ok   bool
	fill bool

	graphs   arena[Graph]
	machines arena[MachineType]
	tasks    arena[Task]
	edges    arena[Edge]
	names    strings.Builder
	nameLen  int
}

func (d *fastDecoder) document(p *Problem) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "application", "platform", "target_throughput") {
		case 0:
			d.application(&p.App)
		case 1:
			d.platform(&p.Platform)
		case 2:
			p.Target = d.int()
		}
	}
	d.space()
	if d.pos != len(d.data) {
		d.ok = false
	}
}

func (d *fastDecoder) application(a *Application) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "name", "graphs") {
		case 0:
			a.Name = d.name()
		case 1:
			for more := d.open('['); more; more = d.more(']') {
				d.graph(d.graphs.next())
			}
			a.Graphs = d.graphs.since(0)
		}
	}
}

func (d *fastDecoder) graph(g *Graph) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "name", "tasks", "edges") {
		case 0:
			g.Name = d.name()
		case 1:
			start := d.tasks.n
			for more := d.open('['); more; more = d.more(']') {
				d.task(d.tasks.next())
			}
			g.Tasks = d.tasks.since(start)
		case 2:
			start := d.edges.n
			for more := d.open('['); more; more = d.more(']') {
				d.edge(d.edges.next())
			}
			g.Edges = d.edges.since(start)
		}
	}
}

func (d *fastDecoder) task(t *Task) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "id", "type", "name") {
		case 0:
			t.ID = d.int()
		case 1:
			t.Type = d.int()
		case 2:
			t.Name = d.name()
		}
	}
}

func (d *fastDecoder) edge(e *Edge) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "from", "to") {
		case 0:
			e.From = d.int()
		case 1:
			e.To = d.int()
		}
	}
}

func (d *fastDecoder) platform(pl *Platform) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "name", "machines") {
		case 0:
			pl.Name = d.name()
		case 1:
			for more := d.open('['); more; more = d.more(']') {
				d.machine(d.machines.next())
			}
			pl.Machines = d.machines.since(0)
		}
	}
}

func (d *fastDecoder) machine(m *MachineType) {
	var seen uint8
	for more := d.open('{'); more; more = d.more('}') {
		switch d.field(&seen, "name", "throughput", "cost") {
		case 0:
			m.Name = d.name()
		case 1:
			m.Throughput = d.int()
		case 2:
			m.Cost = d.int()
		}
	}
}

// space skips JSON whitespace.
func (d *fastDecoder) space() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.pos++
	}
}

// open consumes the bracket c that opens an array ('[') or an object
// ('{') and reports whether a first element follows. An empty array or
// object is consumed whole.
func (d *fastDecoder) open(c byte) bool {
	d.space()
	if !d.ok || d.pos == len(d.data) || d.data[d.pos] != c {
		d.ok = false
		return false
	}
	d.pos++
	d.space()
	// In ASCII each closing bracket follows its opener by two.
	if d.pos < len(d.data) && d.data[d.pos] == c+2 {
		d.pos++
		return false
	}
	return true
}

// more consumes the comma before another element, reporting true, or
// the closing bracket end, reporting false.
func (d *fastDecoder) more(end byte) bool {
	d.space()
	if d.ok && d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ',':
			d.pos++
			return true
		case end:
			d.pos++
			return false
		}
	}
	d.ok = false
	return false
}

// field reads an object key and its colon, and returns the key's index
// in keys. A key outside keys, or one already marked in seen, fails the
// decode and returns -1.
func (d *fastDecoder) field(seen *uint8, keys ...string) int {
	d.space()
	k := d.str()
	d.space()
	if d.ok && d.pos < len(d.data) && d.data[d.pos] == ':' {
		d.pos++
		for i, key := range keys {
			if string(k) == key && *seen&(1<<i) == 0 {
				*seen |= 1 << i
				return i
			}
		}
	}
	d.ok = false
	return -1
}

// str reads a string literal of printable ASCII without escapes and
// returns its contents.
func (d *fastDecoder) str() []byte {
	if d.ok && d.pos < len(d.data) && d.data[d.pos] == '"' {
		for i := d.pos + 1; i < len(d.data); i++ {
			switch c := d.data[i]; {
			case c == '"':
				s := d.data[d.pos+1 : i]
				d.pos = i + 1
				return s
			case c < ' ' || c > '~' || c == '\\':
				d.ok = false
				return nil
			}
		}
	}
	d.ok = false
	return nil
}

// name reads a string value: it counts its bytes on the sizing pass and
// returns it as a slice of the problem's one name string on the fill
// pass.
func (d *fastDecoder) name() string {
	d.space()
	s := d.str()
	if !d.fill {
		d.nameLen += len(s)
		return ""
	}
	start := d.names.Len()
	d.names.Write(s)
	return d.names.String()[start:]
}

// int reads an integer literal: an optional minus, then 0 or a digit
// string without a leading zero. "-0" and magnitudes above math.MaxInt
// fail the decode. A fraction or exponent fails it too, since every
// caller then expects a comma or a closing brace.
func (d *fastDecoder) int() int {
	d.space()
	if !d.ok {
		return 0
	}
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	first, n := i, 0
	for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
		digit := int(d.data[i] - '0')
		if n > math.MaxInt/10 || (n == math.MaxInt/10 && digit > math.MaxInt%10) {
			d.ok = false
			return 0
		}
		n = n*10 + digit
	}
	if i == first || d.data[first] == '0' && (i > first+1 || neg) {
		d.ok = false
		return 0
	}
	d.pos = i
	if neg {
		return -n
	}
	return n
}
