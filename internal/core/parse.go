package core

import (
	"fmt"
	"math"
	"strconv"
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
	return Validated(p)
}

// Validated returns p if it passes Validate, and otherwise the error
// ParseProblem returns for a document that decodes to p.
func Validated(p *Problem) (*Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid problem: %w", err)
	}
	return p, nil
}

// parseFast decodes data when it is one document in the shape Scanner
// reads, followed by nothing but whitespace, and reports false for any
// other input.
func parseFast(data []byte) (*Problem, bool) {
	sc := NewScanner(data)
	p := sc.Problem()
	return p, sc.End()
}

// Scanner reads JSON in the shape json.Marshal and WriteProblem emit,
// and fails at the first byte outside it:
//
//   - strings of printable ASCII without escapes;
//   - integer literals without fraction, exponent, leading zero or "-0"
//     that fit in an int;
//   - object keys in exact case, each at most once per object;
//   - no null, true only where the caller reads it (True), and false
//     only where it reads a boolean (Bool);
//   - numbers of any JSON form only where the caller reads a float
//     (Float).
//
// On such input encoding/json with unknown fields disallowed reads the
// same values. Every reader skips the whitespace before its value, and
// once one fails, every later reader does nothing and End reports false.
// A Scanner allocates nothing itself; only Problem does.
type Scanner struct {
	data []byte
	pos  int
	ok   bool
}

// NewScanner returns a Scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data, ok: true} }

// End reports whether every read succeeded and nothing but whitespace
// follows the last one.
func (s *Scanner) End() bool {
	s.space()
	return s.ok && s.pos == len(s.data)
}

// Problem decodes the problem document at the scanner's position in
// place and moves past it. It does not validate: see Validated.
//
// The decoder reads the document twice. The sizing pass counts graphs,
// machines, tasks, edges and name bytes; the fill pass then stores all
// the tasks of the problem in one array of exactly that size, all its
// edges in another, and every name in one string. Each graph holds a
// slice of the shared arrays whose capacity ends at its last element, so
// an append to one graph never writes into the next. The problem shares
// no memory with the scanned bytes.
func (s *Scanner) Problem() *Problem {
	s.space()
	if !s.ok {
		return nil
	}
	start := s.pos
	d := fastDecoder{Scanner: *s}
	var sized Problem
	d.document(&sized)
	if !d.ok {
		s.ok = false
		return nil
	}
	d.graphs.Alloc()
	d.machines.Alloc()
	d.tasks.Alloc()
	d.edges.Alloc()
	d.names.Alloc()
	d.pos = start
	p := new(Problem)
	d.document(p)
	s.pos, s.ok = d.pos, d.ok
	return p
}

// Arena is the storage of one element type in a decoder that reads its
// input twice, as Scanner.Problem does. On the sizing pass buf is nil and
// every element goes to scratch; Len counts them. Alloc then makes buf
// exactly that long, and the fill pass hands out its slots in order.
type Arena[T any] struct {
	buf     []T
	n       int
	scratch T
}

// Alloc ends the sizing pass.
func (a *Arena[T]) Alloc() { a.buf, a.n = make([]T, a.n), 0 }

// Len is the number of elements handed out so far in this pass.
func (a *Arena[T]) Len() int { return a.n }

// Next returns where the next element goes.
func (a *Arena[T]) Next() *T {
	a.n++
	if a.buf == nil {
		return &a.scratch
	}
	return &a.buf[a.n-1]
}

// Since returns the elements stored from index start on, with capacity
// ending at the last of them; nil on the sizing pass, and empty but not
// nil when the fill pass stored none.
func (a *Arena[T]) Since(start int) []T {
	if a.buf == nil {
		return nil
	}
	return a.buf[start:a.n:a.n]
}

// Text is the string storage of a two-pass decoder: every string it
// keeps is a slice of one string. On the sizing pass Add counts bytes;
// Alloc then sizes the one string, and on the fill pass Add stores each
// string's bytes and returns them.
type Text struct {
	b    strings.Builder
	n    int
	fill bool
}

// Alloc ends the sizing pass.
func (t *Text) Alloc() { t.b.Grow(t.n); t.fill = true }

// Add stores v, returning it as a string on the fill pass and "" on the
// sizing pass.
func (t *Text) Add(v []byte) string {
	if !t.fill {
		t.n += len(v)
		return ""
	}
	start := t.b.Len()
	t.b.Write(v)
	return t.b.String()[start:]
}

// fastDecoder holds the state of Scanner.Problem: a scanner of its own
// and the storage of the two passes.
type fastDecoder struct {
	Scanner

	graphs   Arena[Graph]
	machines Arena[MachineType]
	tasks    Arena[Task]
	edges    Arena[Edge]
	names    Text
}

func (d *fastDecoder) document(p *Problem) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "application", "platform", "target_throughput") {
		case 0:
			d.application(&p.App)
		case 1:
			d.platform(&p.Platform)
		case 2:
			p.Target = d.Int()
		}
	}
}

func (d *fastDecoder) application(a *Application) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "name", "graphs") {
		case 0:
			a.Name = d.names.Add(d.Str())
		case 1:
			for more := d.Open('['); more; more = d.More(']') {
				d.graph(d.graphs.Next())
			}
			a.Graphs = d.graphs.Since(0)
		}
	}
}

func (d *fastDecoder) graph(g *Graph) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "name", "tasks", "edges") {
		case 0:
			g.Name = d.names.Add(d.Str())
		case 1:
			start := d.tasks.Len()
			for more := d.Open('['); more; more = d.More(']') {
				d.task(d.tasks.Next())
			}
			g.Tasks = d.tasks.Since(start)
		case 2:
			start := d.edges.Len()
			for more := d.Open('['); more; more = d.More(']') {
				d.edge(d.edges.Next())
			}
			g.Edges = d.edges.Since(start)
		}
	}
}

func (d *fastDecoder) task(t *Task) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "id", "type", "name") {
		case 0:
			t.ID = d.Int()
		case 1:
			t.Type = d.Int()
		case 2:
			t.Name = d.names.Add(d.Str())
		}
	}
}

func (d *fastDecoder) edge(e *Edge) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "from", "to") {
		case 0:
			e.From = d.Int()
		case 1:
			e.To = d.Int()
		}
	}
}

func (d *fastDecoder) platform(pl *Platform) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "name", "machines") {
		case 0:
			pl.Name = d.names.Add(d.Str())
		case 1:
			for more := d.Open('['); more; more = d.More(']') {
				d.machine(d.machines.Next())
			}
			pl.Machines = d.machines.Since(0)
		}
	}
}

func (d *fastDecoder) machine(m *MachineType) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "name", "throughput", "cost") {
		case 0:
			m.Name = d.names.Add(d.Str())
		case 1:
			m.Throughput = d.Int()
		case 2:
			m.Cost = d.Int()
		}
	}
}

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		s.pos++
	}
}

// Open consumes the bracket c that opens an array ('[') or an object
// ('{') and reports whether a first element follows. An empty array or
// object is consumed whole.
func (s *Scanner) Open(c byte) bool {
	s.space()
	if !s.ok || s.pos == len(s.data) || s.data[s.pos] != c {
		s.ok = false
		return false
	}
	s.pos++
	s.space()
	// In ASCII each closing bracket follows its opener by two.
	if s.pos < len(s.data) && s.data[s.pos] == c+2 {
		s.pos++
		return false
	}
	return true
}

// More consumes the comma before another element, reporting true, or
// the closing bracket end, reporting false.
func (s *Scanner) More(end byte) bool {
	s.space()
	if s.ok && s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ',':
			s.pos++
			return true
		case end:
			s.pos++
			return false
		}
	}
	s.ok = false
	return false
}

// Field reads an object key and its colon, and returns the key's index
// in keys. A key outside keys, or one already marked in seen, fails the
// scan and returns -1. seen has a bit for each key, so keys may hold at
// most 32; Field panics on more.
func (s *Scanner) Field(seen *uint32, keys ...string) int {
	if len(keys) > 32 {
		panic("core: Scanner.Field takes at most 32 keys")
	}
	k := s.Str()
	s.space()
	if s.ok && s.pos < len(s.data) && s.data[s.pos] == ':' {
		s.pos++
		for i, key := range keys {
			if string(k) == key && *seen&(1<<i) == 0 {
				*seen |= 1 << i
				return i
			}
		}
	}
	s.ok = false
	return -1
}

// Str reads a string literal of printable ASCII without escapes and
// returns its contents, a slice of the scanned bytes.
func (s *Scanner) Str() []byte {
	s.space()
	if s.ok && s.pos < len(s.data) && s.data[s.pos] == '"' {
		for i := s.pos + 1; i < len(s.data); i++ {
			switch c := s.data[i]; {
			case c == '"':
				v := s.data[s.pos+1 : i]
				s.pos = i + 1
				return v
			case c < ' ' || c > '~' || c == '\\':
				s.ok = false
				return nil
			}
		}
	}
	s.ok = false
	return nil
}

// Int reads an integer literal: an optional minus, then 0 or a digit
// string without a leading zero. "-0" and magnitudes above math.MaxInt
// fail the scan. A fraction or exponent fails it too, since every
// caller then expects a comma or a closing bracket.
func (s *Scanner) Int() int {
	s.space()
	if !s.ok {
		return 0
	}
	i := s.pos
	neg := i < len(s.data) && s.data[i] == '-'
	if neg {
		i++
	}
	first, n := i, 0
	for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		digit := int(s.data[i] - '0')
		if n > math.MaxInt/10 || (n == math.MaxInt/10 && digit > math.MaxInt%10) {
			s.ok = false
			return 0
		}
		n = n*10 + digit
	}
	if i == first || s.data[first] == '0' && (i > first+1 || neg) {
		s.ok = false
		return 0
	}
	s.pos = i
	if neg {
		return -n
	}
	return n
}

// True reads the literal true. Any other value fails the scan, false
// included: a field that json.Marshal omits when false is never false in
// the shape.
func (s *Scanner) True() bool {
	s.space()
	if s.ok && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "true" {
		s.pos += 4
		return true
	}
	s.ok = false
	return false
}

// Bool reads the literal true or false.
func (s *Scanner) Bool() bool {
	s.space()
	if s.ok && len(s.data)-s.pos >= 5 && string(s.data[s.pos:s.pos+5]) == "false" {
		s.pos += 5
		return false
	}
	return s.True()
}

// Float reads a JSON number as a float64, as encoding/json reads it into
// one. The number grammar is checked first, since strconv.ParseFloat
// also takes forms JSON does not ("Inf", "0x1p3", "+1", ".5"); a number
// outside the float64 range fails the scan.
func (s *Scanner) Float() float64 {
	s.space()
	if !s.ok {
		return 0
	}
	i := s.pos
	if i < len(s.data) && s.data[i] == '-' {
		i++
	}
	switch {
	case i < len(s.data) && s.data[i] == '0':
		i++
	case i < len(s.data) && '1' <= s.data[i] && s.data[i] <= '9':
		i = s.digits(i)
	default:
		s.ok = false
		return 0
	}
	if i < len(s.data) && s.data[i] == '.' {
		if i = s.digits(i + 1); i < 0 {
			s.ok = false
			return 0
		}
	}
	if i < len(s.data) && (s.data[i] == 'e' || s.data[i] == 'E') {
		i++
		if i < len(s.data) && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		if i = s.digits(i); i < 0 {
			s.ok = false
			return 0
		}
	}
	v, err := strconv.ParseFloat(string(s.data[s.pos:i]), 64)
	if err != nil {
		s.ok = false
		return 0
	}
	s.pos = i
	return v
}

// digits returns the index after the run of decimal digits starting at
// i, or -1 when there is none.
func (s *Scanner) digits(i int) int {
	start := i
	for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}
