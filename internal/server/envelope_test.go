package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/core"
	"rentmin/internal/experiments"
)

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// fig3Problem draws one instance of the paper's Fig. 3 setting.
func fig3Problem(tb testing.TB) *rentmin.Problem {
	tb.Helper()
	p, err := rentmin.Generate(experiments.Fig3Setting().Gen, 3)
	if err != nil {
		tb.Fatal(err)
	}
	p.Target = 100
	return p
}

// bodyReader is a request body that costs no allocation to reset.
type bodyReader struct{ *bytes.Reader }

func (bodyReader) Close() error { return nil }

// TestSolveIntakeAllocs pins the allocations of taking in a Fig. 3
// /v1/solve body as client writes it: reading the body, the envelope
// scan that decodes the document in place, then intake's validation
// and admission. The 10 objects are the size-limited reader, the body
// buffer, the envelope, the problem with its four element arrays and
// its one name string, and Validate's one buffer.
func TestSolveIntakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	doc, err := json.Marshal(fig3Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(client.SolveRequest{Problem: doc, TimeLimitMs: 1000, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		r.Body, r.ContentLength = bodyReader{rd}, int64(len(body))
		var env solveEnvelope
		if !s.decodeBody(w, r, &env) {
			t.Fatalf("decodeBody: %s", w.Body)
		}
		if _, ok := s.intake(w, env.inline(), env.ProblemRef, env.Target, -1); !ok {
			t.Fatalf("intake: %s", w.Body)
		}
	})
	if allocs > 10 {
		t.Errorf("taking in a Fig. 3 /v1/solve body allocates %v objects, want at most 10", allocs)
	}
}

// intakeOutcome is how the daemon took in one /v1/solve or /v1/batch
// body: the rejection it wrote, or what it admitted.
type intakeOutcome struct {
	code     int
	body     string
	problems []*rentmin.Problem
	limit    time.Duration
	stats    bool
}

// takeIn runs a body through the prologue and the intake of its
// endpoint. With scan false the body skips the envelope scan and goes
// straight to encoding/json, the reference path.
func takeIn(s *Server, batch bool, body []byte, scan bool) intakeOutcome {
	path := "/v1/solve"
	if batch {
		path = "/v1/batch"
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	var out intakeOutcome
	var ok bool
	if batch {
		var env batchEnvelope
		var v interface{} = &env
		if !scan {
			v = env.reference()
		}
		var rq request
		if rq, ok = s.prologue(w, r, v, &env.TimeLimitMs); ok {
			out.limit, out.stats = rq.limit, env.Stats
			out.problems, ok = s.batchIntake(w, &env)
		}
	} else {
		var env solveEnvelope
		var v interface{} = &env
		if !scan {
			v = env.reference()
		}
		var rq request
		if rq, ok = s.prologue(w, r, v, &env.TimeLimitMs); ok {
			out.limit, out.stats = rq.limit, env.Stats
			var p *rentmin.Problem
			if p, ok = s.intake(w, env.inline(), env.ProblemRef, env.Target, -1); ok {
				out.problems = []*rentmin.Problem{p}
			}
		}
	}
	if !ok {
		out = intakeOutcome{code: w.Code, body: w.Body.String()}
	}
	return out
}

// referenceProblem decodes a document as encoding/json does, with
// unknown fields disallowed and no validation.
func referenceProblem(t *testing.T, doc []byte) *core.Problem {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var p core.Problem
	if err := dec.Decode(&p); err != nil {
		t.Fatalf("encoding/json rejects a document the scan accepted: %v", err)
	}
	return &p
}

// FuzzEnvelope holds the one-pass reader of /v1/solve and /v1/batch
// bodies to encoding/json. Whatever the scan accepts, encoding/json
// accepts too, and decodes to a deeply equal request whose documents
// decode to deeply equal problems. And for every body the daemon takes
// it in as it does on the encoding/json path alone: the same status and
// body for a rejection, or deeply equal admitted problems, time limit
// and stats flag.
func FuzzEnvelope(f *testing.F) {
	s := New(Config{Workers: 1, MaxBatch: 3, MaxBodyBytes: 1 << 14})
	f.Cleanup(s.Close)
	example := rentmin.IllustratingExample()
	hash, canon, err := client.ProblemHash(example)
	if err != nil {
		f.Fatal(err)
	}
	cached, err := core.ParseProblem(canon)
	if err != nil {
		f.Fatal(err)
	}
	s.cache.put(hash, cached)

	example.Target = 70
	doc, err := json.Marshal(example)
	if err != nil {
		f.Fatal(err)
	}
	ten := 10
	for _, req := range []interface{}{
		client.SolveRequest{Problem: doc},
		client.SolveRequest{Problem: doc, Target: &ten, TimeLimitMs: 1500, Stats: true},
		client.SolveRequest{ProblemRef: &client.ProblemRef{Hash: hash, Target: &ten}, TimeLimitMs: 20},
		client.SolveRequest{ProblemRef: &client.ProblemRef{Hash: hash}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, body)
	}
	for _, req := range []client.BatchRequest{
		{Problems: []json.RawMessage{doc, canon}},
		{Problems: []json.RawMessage{doc}, TimeLimitMs: 5, Stats: true},
		{ProblemRefs: []client.ProblemRef{{Hash: hash, Target: &ten}, {Hash: hash}}, Stats: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(true, body)
	}
	escaped := strings.Replace(string(doc), `"phi1"`, `"\u0070hi1"`, 1)
	for _, body := range []string{
		``,
		`{}`,
		`{} x`,
		`null`,
		fmt.Sprintf(`{"problem": %s, "problem": {"bogus": 1}}`, doc),
		fmt.Sprintf(`{"Problem": %s}`, doc),
		`{"problem": null}`,
		`{"problem": {"bogus": 1}, "time_limit_ms": -5}`,
		fmt.Sprintf(`{"problem": {"bogus": 1}, "problem_ref": {"hash": %q}}`, hash),
		fmt.Sprintf(`{"problem": %s, "target": 1.5}`, escaped),
		fmt.Sprintf(`{"problem": %s, "stats": false}`, doc),
		fmt.Sprintf(`{"problem": %s, "time_limit_ms": -0}`, doc),
		fmt.Sprintf(`{"problem": %s, "time_limit_ms": 99999999999999999999}`, doc),
		fmt.Sprintf(` { "problem" : %s , "target" : 3 } `, doc),
		`{"problem_ref": {"hash": "XYZ"}, "target": -1}`,
		fmt.Sprintf(`{"problems": [%s, null]}`, doc),
		fmt.Sprintf(`{"problems": [], "problem_refs": [{"hash": %q}]}`, hash),
		fmt.Sprintf(`{"problems": [%s], "problem_refs": [{"hash": %q}]}`, doc, hash),
		fmt.Sprintf(`{"problem_refs": [{"hash": %q, "target": 1.5}]}`, hash),
		`{"problem_refs": [{}, {}, {}, {}]}`,
		// Documents in the shape the scan reads that fail validation.
		`{"problem": {"application": {"graphs": []}, "platform": {"machines": []}, "target_throughput": 1}}`,
		fmt.Sprintf(`{"problems": [%s, {"application": {"graphs": [{"tasks": [{"type": 9}]}]}}]}`, doc),
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		if batch {
			var fast batchEnvelope
			if fast.scan(body) {
				ref := takeReference(t, s, "/v1/batch", body, &client.BatchRequest{}).(*client.BatchRequest)
				if len(fast.problems) != len(ref.Problems) {
					t.Fatalf("scan read %d documents, encoding/json %d", len(fast.problems), len(ref.Problems))
				}
				for i, doc := range ref.Problems {
					if want := referenceProblem(t, doc); !reflect.DeepEqual(fast.problems[i], want) {
						t.Fatalf("document %d: scan decoded %+v, encoding/json %+v", i, fast.problems[i], want)
					}
				}
				ref.Problems, fast.problems = nil, nil
				if !reflect.DeepEqual(&fast.BatchRequest, ref) {
					t.Fatalf("scan decoded %+v, encoding/json %+v", fast.BatchRequest, *ref)
				}
			}
		} else {
			var fast solveEnvelope
			if fast.scan(body) {
				ref := takeReference(t, s, "/v1/solve", body, &client.SolveRequest{}).(*client.SolveRequest)
				switch {
				case (fast.problem == nil) != (ref.Problem == nil):
					t.Fatalf("scan read document %v, encoding/json %q", fast.problem, ref.Problem)
				case ref.Problem != nil:
					if want := referenceProblem(t, ref.Problem); !reflect.DeepEqual(fast.problem, want) {
						t.Fatalf("scan decoded %+v, encoding/json %+v", fast.problem, want)
					}
				}
				ref.Problem = nil
				if !reflect.DeepEqual(&fast.SolveRequest, ref) {
					t.Fatalf("scan decoded %+v, encoding/json %+v", fast.SolveRequest, *ref)
				}
			}
		}
		got, want := takeIn(s, batch, body, true), takeIn(s, batch, body, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("intake %+v, on the encoding/json path %+v", got, want)
		}
	})
}

// takeReference decodes body into v on the encoding/json path alone,
// which must accept it.
func takeReference(t *testing.T, s *Server, path string, body []byte, v interface{}) interface{} {
	t.Helper()
	w := httptest.NewRecorder()
	if !s.decodeBody(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), v) {
		t.Fatalf("encoding/json rejects a body the scan accepted: %s", w.Body)
	}
	return v
}

// TestReadBody checks that readBody returns every byte and the error
// that ended the read, whether the length is known, unknown or larger
// than the up-front buffer, and however the reader splits the body.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 300)
	for _, size := range []int64{-1, 0, 1, int64(len(body)), int64(len(body)) + 7} {
		got, err := readBody(iotest.OneByteReader(bytes.NewReader(body)), size)
		if err != io.EOF || !bytes.Equal(got, body) {
			t.Errorf("size %d: read %d bytes, err %v; want %d bytes and io.EOF", size, len(got), err, len(body))
		}
	}
	cut := errors.New("connection reset")
	got, err := readBody(io.MultiReader(bytes.NewReader(body[:100]), iotest.ErrReader(cut)), int64(len(body)))
	if err != cut || !bytes.Equal(got, body[:100]) {
		t.Errorf("cut body: read %d bytes, err %v; want 100 bytes and %v", len(got), err, cut)
	}
}
