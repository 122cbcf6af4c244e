package server

import (
	"encoding/json"
	"io"

	"rentmin/client"
	"rentmin/internal/core"
)

// The one-pass reader of /v1/solve and /v1/batch bodies. decodeBody
// reads such a body into one buffer and hands it to the envelope's scan,
// which accepts exactly the shape client emits: inline documents,
// problem_ref and problem_refs, keys in exact case and each at most
// once, integer literals only, stats only as true, and the documents in
// the shape core.Scanner reads. It decodes every inline document in
// place, in the same pass. Any other body goes whole to encoding/json
// with unknown fields disallowed, which defines what a body means and
// words every error; FuzzEnvelope holds the scan to it.

// fastEnvelope is a request envelope with a one-pass reader.
type fastEnvelope interface {
	// scan decodes body when it has the shape client emits, and reports
	// false, having changed nothing, for any other body.
	scan(body []byte) bool
	// reference is what encoding/json decodes a body into when scan
	// refuses it.
	reference() interface{}
}

// solveEnvelope is a /v1/solve body. The scan leaves Problem nil and
// sets problem instead.
type solveEnvelope struct {
	client.SolveRequest
	problem *core.Problem // the inline document, decoded by the scan
}

func (e *solveEnvelope) reference() interface{} { return &e.SolveRequest }

// inline returns the request's inline document, however it was read.
func (e *solveEnvelope) inline() inline { return inline{p: e.problem, doc: e.Problem} }

func (e *solveEnvelope) scan(body []byte) bool {
	var out solveEnvelope
	sc := core.NewScanner(body)
	var seen uint32
	for more := sc.Open('{'); more; more = sc.More('}') {
		switch sc.Field(&seen, "problem", "problem_ref", "target", "time_limit_ms", "stats") {
		case 0:
			out.problem = sc.Problem()
		case 1:
			ref := scanRef(&sc)
			out.ProblemRef = &ref
		case 2:
			target := sc.Int()
			out.Target = &target
		case 3:
			out.TimeLimitMs = int64(sc.Int())
		case 4:
			out.Stats = sc.True()
		}
	}
	if !sc.End() {
		return false
	}
	*e = out
	return true
}

// batchEnvelope is a /v1/batch body. The scan leaves Problems nil and
// fills problems instead.
type batchEnvelope struct {
	client.BatchRequest
	problems []*core.Problem // the inline documents, decoded by the scan
}

func (e *batchEnvelope) reference() interface{} { return &e.BatchRequest }

// docs counts the request's inline documents, however they were read.
func (e *batchEnvelope) docs() int { return max(len(e.problems), len(e.Problems)) }

// item returns the request's i-th problem: an inline document or a
// reference.
func (e *batchEnvelope) item(i int) (inline, *client.ProblemRef) {
	switch {
	case len(e.problems) > 0:
		return inline{p: e.problems[i]}, nil
	case len(e.Problems) > 0:
		return inline{doc: e.Problems[i]}, nil
	}
	return inline{}, &e.ProblemRefs[i]
}

func (e *batchEnvelope) scan(body []byte) bool {
	var out batchEnvelope
	sc := core.NewScanner(body)
	var seen uint32
	for more := sc.Open('{'); more; more = sc.More('}') {
		switch sc.Field(&seen, "problems", "problem_refs", "time_limit_ms", "stats") {
		case 0:
			out.problems = []*core.Problem{}
			for more := sc.Open('['); more; more = sc.More(']') {
				out.problems = append(out.problems, sc.Problem())
			}
		case 1:
			out.ProblemRefs = []client.ProblemRef{}
			for more := sc.Open('['); more; more = sc.More(']') {
				out.ProblemRefs = append(out.ProblemRefs, scanRef(&sc))
			}
		case 2:
			out.TimeLimitMs = int64(sc.Int())
		case 3:
			out.Stats = sc.True()
		}
	}
	if !sc.End() {
		return false
	}
	*e = out
	return true
}

// scanRef reads one problem_ref object.
func scanRef(sc *core.Scanner) client.ProblemRef {
	var ref client.ProblemRef
	var seen uint32
	for more := sc.Open('{'); more; more = sc.More('}') {
		switch sc.Field(&seen, "hash", "target") {
		case 0:
			ref.Hash = string(sc.Str())
		case 1:
			target := sc.Int()
			ref.Target = &target
		}
	}
	return ref
}

// inline is a request's inline problem document: decoded by the scan
// (p), or left for intake to parse (doc) when the body took the
// encoding/json path. Both are empty when the request has none.
type inline struct {
	p   *core.Problem
	doc json.RawMessage
}

// readBody reads r into one buffer until a read fails, and returns the
// bytes and that error: io.EOF when the body ended. size is the body's
// length when known (from Content-Length), and negative otherwise: a
// body of exactly that length, up to maxPrealloc, takes one allocation.
func readBody(r io.Reader, size int64) ([]byte, error) {
	switch {
	case size < 0:
		size = 512
	case size > maxPrealloc:
		size = maxPrealloc
	}
	// One byte more than the body lets the read that finds its end
	// happen without growing the buffer.
	buf := make([]byte, 0, size+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// maxPrealloc bounds the buffer readBody allocates before the bytes
// arrive, so a Content-Length alone cannot make the daemon allocate more.
// A longer body grows the buffer as it is read.
const maxPrealloc = 1 << 20

// replay reads a body that readBody read ahead: its bytes, then the
// error that ended the read. encoding/json decodes it exactly as it
// decodes the request body itself.
type replay struct {
	data []byte
	err  error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
