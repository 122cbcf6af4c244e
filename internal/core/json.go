package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// ReadProblem reads r to its end and parses the document with
// ParseProblem.
func ReadProblem(r io.Reader) (*Problem, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("decode problem: %w", err)
	}
	return ParseProblem(data)
}

// decodeProblem is the reference decoder behind ParseProblem:
// encoding/json with unknown fields disallowed, and nothing but
// whitespace allowed after the document. It does not validate.
func decodeProblem(data []byte) (*Problem, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Problem
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("decode problem: %w", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, errors.New("decode problem: trailing data after the document")
	}
	return &p, nil
}

// AppendProblem appends the compact JSON document of p to dst: byte for
// byte what json.Marshal writes for p, fields in declaration order, empty
// names and edge lists omitted, and null for a nil slice that is not
// omitted. It is the inverse of Scanner.Problem, and it cannot fail.
func AppendProblem(dst []byte, p *Problem) []byte {
	b := append(dst, `{"application":{`...)
	b = appendName(b, p.App.Name)
	b = append(b, `"graphs":`...)
	if p.App.Graphs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.App.Graphs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendGraph(b, &p.App.Graphs[i])
		}
		b = append(b, ']')
	}
	b = append(b, `},"platform":{`...)
	b = appendName(b, p.Platform.Name)
	b = append(b, `"machines":`...)
	if p.Platform.Machines == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range p.Platform.Machines {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendName(append(b, '{'), m.Name)
			b = strconv.AppendInt(append(b, `"throughput":`...), int64(m.Throughput), 10)
			b = strconv.AppendInt(append(b, `,"cost":`...), int64(m.Cost), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `},"target_throughput":`...), int64(p.Target), 10)
	return append(b, '}')
}

// AppendGraph appends the compact JSON of g to dst, byte for byte what
// json.Marshal writes for it.
func AppendGraph(dst []byte, g *Graph) []byte {
	b := appendName(append(dst, '{'), g.Name)
	b = append(b, `"tasks":`...)
	if g.Tasks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range g.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"id":`...), int64(t.ID), 10)
			b = strconv.AppendInt(append(b, `,"type":`...), int64(t.Type), 10)
			if t.Name != "" {
				b = AppendString(append(b, `,"name":`...), t.Name)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(g.Edges) > 0 {
		b = append(b, `,"edges":[`...)
		for i, e := range g.Edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"from":`...), int64(e.From), 10)
			b = strconv.AppendInt(append(b, `,"to":`...), int64(e.To), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendName appends a leading "name" field and its comma, or nothing
// when name is empty.
func appendName(b []byte, name string) []byte {
	if name == "" {
		return b
	}
	return append(AppendString(append(b, `"name":`...), name), ',')
}

// AppendString appends s as json.Marshal encodes it. A string of
// printable ASCII that json.Marshal writes unescaped is appended as it
// is; any other string goes through json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// WriteProblem encodes a Problem as indented JSON.
func WriteProblem(w io.Writer, p *Problem) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadProblemFile reads and validates a Problem from a JSON file.
func LoadProblemFile(path string) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadProblem(f)
}

// SaveProblemFile writes a Problem to a JSON file.
func SaveProblemFile(path string, p *Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteProblem(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
