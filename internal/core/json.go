package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
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
