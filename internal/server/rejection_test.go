package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/core"
)

// TestSolvingEndpointRejections pins the status code and the exact error
// body of every rejection /v1/solve, POST /v1/sessions and
// POST /v1/sessions/{id}/events answer with. Three daemons serve the
// table: an open one whose admission bounds are exactly the size of the
// paper's Section VII example and whose one session slot is taken, one
// whose queue is full, and one that is draining.
func TestSolvingEndpointRejections(t *testing.T) {
	ctx := context.Background()
	_, oc := newTestServer(t, Config{Workers: 1, MaxGraphs: 3, MaxTypes: 4, MaxTasks: 6,
		MaxTarget: 1000, MaxBatch: 2, MaxSessions: 1})
	full, fc := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	draining, dc := newTestServer(t, Config{Workers: 1})
	draining.BeginDrain()

	hash, doc, err := client.ProblemHash(fastProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.UploadProblem(ctx, hash, doc); err != nil {
		t.Fatalf("UploadProblem: %v", err)
	}
	openSess, _, err := oc.NewSession(ctx, fastProblem(10), nil)
	if err != nil {
		t.Fatalf("NewSession on the open daemon: %v", err)
	}
	fullSess, _, err := fc.NewSession(ctx, fastProblem(10), nil)
	if err != nil {
		t.Fatalf("NewSession on the full daemon: %v", err)
	}
	// Take every admission slot of the full daemon, as Workers+QueueDepth
	// outstanding requests would.
	for i := 0; i < cap(full.slots); i++ {
		full.slots <- struct{}{}
	}
	t.Cleanup(func() {
		for i := 0; i < cap(full.slots); i++ {
			<-full.slots
		}
	})

	over := func(edit func(p *rentmin.Problem)) string {
		p := fastProblem(10)
		edit(p)
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	tooManyGraphs := over(func(p *rentmin.Problem) {
		p.App.Graphs = append(p.App.Graphs, core.NewChain("phi4", 0))
	})
	tooManyTypes := over(func(p *rentmin.Problem) {
		p.Platform.Machines = append(p.Platform.Machines, core.MachineType{Name: "P5", Throughput: 50, Cost: 40})
	})
	tooManyTasks := over(func(p *rentmin.Problem) { p.App.Graphs[2] = core.NewChain("phi3", 0, 1, 2) })
	tooHighTarget := over(func(p *rentmin.Problem) { p.Target = 5000 })
	missing := strings.Repeat("ab", 32)
	event := `{"kind": "target_change", "target": 20}`

	const (
		shuttingDown = "server is shutting down"
		queueFull    = "work queue is full (1 in flight + 1 queued)"
		noSession    = "no such session (expired, deleted, or never created)"
		badHash      = "malformed problem_ref hash: want 64 hex characters (lowercase sha256)"
	)
	notCached := "problem " + missing + " not cached: upload it via PUT /v1/problems/{hash} and retry"
	admission := []struct{ name, doc, want string }{
		{"graphs", tooManyGraphs, "problem has 4 recipe graphs, admission limit is 3"},
		{"types", tooManyTypes, "problem has 5 machine types, admission limit is 4"},
		{"tasks", tooManyTasks, "problem has 7 tasks across its graphs, admission limit is 6"},
		{"target", tooHighTarget, "target throughput 5000 exceeds admission limit 1000"},
	}

	type rejection struct {
		name   string
		c      *client.Client
		path   string
		body   string
		code   int
		errMsg string
	}
	var cases []rejection
	add := func(name string, c *client.Client, path, body string, code int, errMsg string) {
		cases = append(cases, rejection{name, c, path, body, code, errMsg})
	}
	openEvents := "/v1/sessions/" + openSess.ID() + "/events"

	// /v1/solve
	add("solve/draining", dc, "/v1/solve", fmt.Sprintf(`{"problem": %s}`, doc), 503, shuttingDown)
	add("solve/unknown field", oc, "/v1/solve", `{"bogus": 1}`, 400, `decode request: json: unknown field "bogus"`)
	add("solve/trailing data", oc, "/v1/solve", `{} {}`, 400, "decode request: trailing data after the request")
	add("solve/negative time limit", oc, "/v1/solve", `{"time_limit_ms": -5}`, 400, "negative time_limit_ms -5")
	add("solve/problem and ref", oc, "/v1/solve", fmt.Sprintf(`{"problem": %s, "problem_ref": {"hash": %q}}`, doc, hash),
		400, "problem and problem_ref are mutually exclusive")
	add("solve/missing document", oc, "/v1/solve", `{}`, 400, "missing problem document")
	add("solve/malformed document", oc, "/v1/solve", `{"problem": {"bogus": 1}}`, 400, `decode problem: json: unknown field "bogus"`)
	add("solve/bad ref hash", oc, "/v1/solve", `{"problem_ref": {"hash": "xyz"}}`, 400, badHash)
	add("solve/uncached ref", oc, "/v1/solve", fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": 10}}`, missing), 412, notCached)
	add("solve/bad ref target", oc, "/v1/solve", fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": -1}}`, hash),
		400, "invalid problem_ref target: negative target throughput -1")
	add("solve/bad target override", oc, "/v1/solve", fmt.Sprintf(`{"problem": %s, "target": -1}`, doc),
		400, "invalid target override: negative target throughput -1")
	add("solve/bad target override on ref", oc, "/v1/solve", fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": 10}, "target": -1}`, hash),
		400, "invalid target override: negative target throughput -1")
	for _, a := range admission {
		add("solve/admission "+a.name, oc, "/v1/solve", fmt.Sprintf(`{"problem": %s}`, a.doc), 422, a.want)
	}
	add("solve/admission ref target", oc, "/v1/solve", fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": 5000}}`, hash),
		422, "target throughput 5000 exceeds admission limit 1000")
	add("solve/queue full", fc, "/v1/solve", fmt.Sprintf(`{"problem": %s, "target": 10}`, doc), 429, queueFull)

	// POST /v1/sessions
	add("create/draining", dc, "/v1/sessions", fmt.Sprintf(`{"problem": %s}`, doc), 503, shuttingDown)
	add("create/unknown field", oc, "/v1/sessions", `{"problem_ref": {}}`, 400, `decode request: json: unknown field "problem_ref"`)
	add("create/trailing data", oc, "/v1/sessions", `{}x`, 400, "decode request: trailing data after the request")
	add("create/negative time limit", oc, "/v1/sessions", `{"time_limit_ms": -1}`, 400, "negative time_limit_ms -1")
	add("create/missing document", oc, "/v1/sessions", `{}`, 400, "missing problem document")
	add("create/malformed document", oc, "/v1/sessions", `{"problem": {"bogus": 1}}`, 400, `decode problem: json: unknown field "bogus"`)
	add("create/bad target override", oc, "/v1/sessions", fmt.Sprintf(`{"problem": %s, "target": -3}`, doc),
		400, "invalid target override: negative target throughput -3")
	for _, a := range admission {
		add("create/admission "+a.name, oc, "/v1/sessions", fmt.Sprintf(`{"problem": %s}`, a.doc), 422, a.want)
	}
	add("create/table full", oc, "/v1/sessions", fmt.Sprintf(`{"problem": %s, "target": 10}`, doc),
		429, "session table is full (1 open sessions); delete one or retry later")
	add("create/queue full", fc, "/v1/sessions", fmt.Sprintf(`{"problem": %s, "target": 10}`, doc), 429, queueFull)

	// POST /v1/sessions/{id}/events
	add("events/draining", dc, "/v1/sessions/any/events", `{"events": [`+event+`]}`, 503, shuttingDown)
	add("events/unknown field", oc, openEvents, `{"bogus": 1}`, 400, `decode request: json: unknown field "bogus"`)
	add("events/trailing data", oc, openEvents, `{"events": [`+event+`]} []`, 400, "decode request: trailing data after the request")
	add("events/negative time limit", oc, openEvents, `{"events": [`+event+`], "time_limit_ms": -7}`, 400, "negative time_limit_ms -7")
	add("events/no events", oc, openEvents, `{"events": []}`, 400, "request has no events")
	add("events/too many events", oc, openEvents, `{"events": [`+event+`,`+event+`,`+event+`]}`,
		422, "request has 3 events, admission limit is 2")
	add("events/unknown session", oc, "/v1/sessions/nope/events", `{"events": [`+event+`]}`, 404, noSession)
	add("events/queue full", fc, "/v1/sessions/"+fullSess.ID()+"/events", `{"events": [`+event+`]}`, 429, queueFull)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(tc.c.BaseURL()+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e client.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if resp.StatusCode != tc.code || e.Error != tc.errMsg {
				t.Errorf("HTTP %d %q, want %d %q", resp.StatusCode, e.Error, tc.code, tc.errMsg)
			}
		})
	}
}
