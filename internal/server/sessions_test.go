package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

// TestSessionRoundTrip drives one session through a representative event
// script and cross-checks the committed costs against one-shot cold
// solves of the same mutated problem.
func TestSessionRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	sess, res, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if sess.ID() == "" {
		t.Fatal("session has no ID")
	}
	if res.Seq != 0 || res.Kind != "create" || res.Status != "optimal" {
		t.Fatalf("initial resolve = %+v", res)
	}
	if res.Allocation == nil || res.Allocation.Cost != 124 {
		t.Fatalf("initial cost = %+v, want 124", res.Allocation)
	}
	if res.Warm {
		t.Error("initial solve claims to be warm")
	}

	// A symmetric script: every change is later undone, so the final cost
	// must return to the initial optimum.
	results, st, err := sess.Events(ctx,
		client.TargetChangeEvent(80),
		client.PriceChangeEvent(3, 60),
		client.OutageEvent(1),
		client.RestoreEvent(1),
		client.PriceChangeEvent(3, 33),
		client.TargetChangeEvent(70),
	)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("event %d failed: %s", i, r.Error)
		}
		if r.Status != "optimal" {
			t.Fatalf("event %d status = %q", i, r.Status)
		}
		if r.Seq != i+1 {
			t.Fatalf("event %d seq = %d", i, r.Seq)
		}
		if !r.Warm {
			t.Errorf("event %d ran cold", i)
		}
	}
	if st.Cost != 124 {
		t.Fatalf("final cost = %d, want 124 (symmetric script)", st.Cost)
	}
	if st.Events != 6 || st.WarmResolves != 6 || st.ColdResolves != 1 {
		t.Fatalf("state counters = %+v", st)
	}
	if st.ChurnMoves <= 0 || st.ChurnRatio <= 0 {
		t.Fatalf("churn accounting = moves %d ratio %g, want positive", st.ChurnMoves, st.ChurnRatio)
	}

	// The target-80 step must price identically to a one-shot cold solve
	// at that target (the cold-equivalence contract over the wire).
	sol, err := c.Solve(ctx, fastProblem(80), nil)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if got := results[0].Allocation.Cost; got != sol.Allocation.Cost {
		t.Fatalf("session cost at target 80 = %d, one-shot solve = %d", got, sol.Allocation.Cost)
	}

	// GET /v1/sessions/{id} agrees with the events response.
	got, err := sess.State(ctx)
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if got.Cost != st.Cost || got.Events != st.Events || got.ID != sess.ID() {
		t.Fatalf("GET state %+v != events state %+v", got, st)
	}

	// Warm re-solves dominate on /metrics, and the churn series exist.
	met, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	warm := metricValue(t, met, "rentmind_session_warm_resolves_total")
	cold := metricValue(t, met, "rentmind_session_cold_resolves_total")
	if !(warm > cold) {
		t.Errorf("warm resolves %g not above cold %g", warm, cold)
	}
	if !strings.Contains(met, "rentmind_session_churn_moves_total") ||
		!strings.Contains(met, "rentmind_session_churn_ratio") {
		t.Error("churn series missing from /metrics")
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sess.State(ctx); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("state after close: %v", err)
	}
}

// metricValue extracts one unlabelled series value from the Prometheus
// text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics", name)
	return 0
}

// TestSessionInvalidEvents checks per-event rejection: each invalid event
// reports an error in place, mutates nothing, and later events in the
// same request still apply.
func TestSessionInvalidEvents(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxTarget: 100})
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	badGraph := client.SessionEvent{Kind: "recipe_arrival", Graph: json.RawMessage(`{"bogus":1}`)}
	results, st, err := sess.Events(ctx,
		client.SessionEvent{Kind: "target_change"},  // missing operand
		client.SessionEvent{Kind: "bogus"},          // unknown kind
		badGraph,                                    // unknown graph field
		client.SessionEvent{Kind: "recipe_arrival"}, // missing graph
		client.TargetChangeEvent(101),               // above MaxTarget
		client.TargetChangeEvent(-1),                // session-level invalid
		client.PriceChangeEvent(99, 5),              // type out of range
		client.TargetChangeEvent(72),                // valid: still applies
	)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	for i := 0; i < 7; i++ {
		if results[i].Error == "" {
			t.Errorf("invalid event %d reported no error: %+v", i, results[i])
		}
		if results[i].Allocation != nil {
			t.Errorf("invalid event %d carries an allocation", i)
		}
	}
	if results[7].Error != "" || results[7].Status != "optimal" {
		t.Fatalf("trailing valid event did not apply: %+v", results[7])
	}
	if st.Target != 72 || st.Events != 1 {
		t.Fatalf("state after mixed batch = %+v", st)
	}

	// Unknown session IDs answer 404 on every per-session endpoint.
	ghost := c.OpenSession("deadbeefdeadbeefdeadbeefdeadbeef")
	if _, _, err := ghost.Events(ctx, client.TargetChangeEvent(5)); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("events on ghost session: %v", err)
	}
	if _, err := ghost.State(ctx); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("state on ghost session: %v", err)
	}
	if err := ghost.Close(ctx); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("close on ghost session: %v", err)
	}

	// An empty event list is a malformed request, not a no-op.
	if _, _, err := sess.Events(ctx); apiStatus(t, err).StatusCode != http.StatusBadRequest {
		t.Fatalf("empty events: %v", err)
	}
}

// TestSessionAdmissionBounds checks the create-time and arrival-time
// admission limits and the event-count bound.
func TestSessionAdmissionBounds(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxGraphs: 3, MaxBatch: 2})
	ctx := context.Background()

	// IllustratingExample has 3 graphs: creation is at the bound, and any
	// arrival would exceed it.
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession at the graph bound: %v", err)
	}
	arrival := client.RecipeArrivalEvent(rentmin.NewChain("extra", 0))
	results, _, err := sess.Events(ctx, arrival)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if results[0].Error == "" || !strings.Contains(results[0].Error, "admission limit") {
		t.Fatalf("over-bound arrival = %+v", results[0])
	}

	// More events than MaxBatch is rejected wholesale.
	_, _, err = sess.Events(ctx,
		client.TargetChangeEvent(71), client.TargetChangeEvent(72), client.TargetChangeEvent(73))
	if apiStatus(t, err).StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized event batch: %v", err)
	}
}

// TestSessionEventsUseDefaultLimit: the daemon keeps no limit per
// session. The create's time_limit_ms bounds only the initial solve; an
// events request without one runs under -default-time-limit.
func TestSessionEventsUseDefaultLimit(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, DefaultTimeLimit: time.Nanosecond})
	ctx := context.Background()

	sess, res, err := c.NewSession(ctx, fastProblem(70), &client.SessionOptions{TimeLimit: time.Minute})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if res.Status != "optimal" {
		t.Fatalf("initial solve under a 60 s limit: status %q, want optimal", res.Status)
	}
	results, _, err := sess.Events(ctx, client.TargetChangeEvent(80))
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if !strings.Contains(results[0].Error, "deadline exceeded") {
		t.Errorf("event under the 1 ns default limit = %+v, want a deadline error", results[0])
	}
}

// TestSessionTableFull checks the MaxSessions bound and that deleting a
// session frees its slot.
func TestSessionTableFull(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	ctx := context.Background()

	first, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("first session: %v", err)
	}
	_, _, err = c.NewSession(ctx, fastProblem(70), nil)
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusTooManyRequests || !apiErr.Temporary() {
		t.Fatalf("second session = %v, want retryable 429", err)
	}
	if err := first.Close(ctx); err != nil {
		t.Fatalf("close first: %v", err)
	}
	if _, _, err := c.NewSession(ctx, fastProblem(70), nil); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestSessionIdleEviction checks the idle sweep: an untouched session is
// closed and its slot freed, and the eviction is visible on /metrics.
func TestSessionIdleEviction(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, SessionIdleTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		met, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if metricValue(t, met, "rentmind_sessions_active") == 0 {
			if got := metricValue(t, met, "rentmind_sessions_evicted_total"); got != 1 {
				t.Fatalf("evicted_total = %g, want 1", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := sess.State(ctx); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("state after eviction: %v", err)
	}
}

// TestSessionSweepSkipsInFlight is the eviction-vs-in-flight race rule,
// tested deterministically at the table level: an entry a request holds
// retained is never swept, no matter how stale its clock.
func TestSessionSweepSkipsInFlight(t *testing.T) {
	tab := newSessionTable(4)
	busy, err := tab.reserve("busy")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := tab.reserve("idle")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := rentmin.NewSession(context.Background(), fastProblem(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	busy.sess, idle.sess = sess, sess
	tab.release(idle) // idle: inFlight 0; busy keeps its retain

	stale := time.Now().Add(-time.Hour)
	tab.mu.Lock()
	busy.lastUsed, idle.lastUsed = stale, stale
	tab.mu.Unlock()

	evicted := tab.sweepIdle(time.Minute)
	if len(evicted) != 1 || evicted[0].id != "idle" {
		t.Fatalf("sweep evicted %+v, want only the idle entry", evicted)
	}
	if _, ok := tab.retain("busy"); !ok {
		t.Fatal("busy entry was evicted while in flight")
	}
	// Once released, the next sweep takes it.
	tab.release(busy)
	tab.release(busy) // drop both retains
	tab.mu.Lock()
	busy.lastUsed = stale
	tab.mu.Unlock()
	if evicted := tab.sweepIdle(time.Minute); len(evicted) != 1 || evicted[0].id != "busy" {
		t.Fatalf("post-release sweep evicted %+v", evicted)
	}
}

// TestSessionConcurrentEvents hammers one session from several goroutines
// under a short idle timeout: every event must commit exactly once (the
// session serializes them) and no request may observe a half-evicted
// session.
func TestSessionConcurrentEvents(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, SessionIdleTimeout: 30 * time.Second})
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	const goroutines, perG = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				results, _, err := sess.Events(ctx, client.TargetChangeEvent(60+(g*perG+i)%20))
				if err != nil {
					errs <- err
					return
				}
				if results[0].Error != "" {
					errs <- fmt.Errorf("event rejected: %s", results[0].Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := sess.State(ctx)
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.Events != goroutines*perG {
		t.Fatalf("committed %d events, want %d", st.Events, goroutines*perG)
	}
	if st.WarmResolves+st.ColdResolves != goroutines*perG+1 {
		t.Fatalf("resolve counters %d+%d, want %d", st.WarmResolves, st.ColdResolves, goroutines*perG+1)
	}
}

// TestSessionDrain checks shutdown: drain fails new session traffic with
// 503 and the eviction loop closes every open session before Close
// returns.
func TestSessionDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.BeginDrain()
	if _, _, err := sess.Events(ctx, client.TargetChangeEvent(80)); apiStatus(t, err).StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("events during drain: %v", err)
	}
	if _, _, err := c.NewSession(ctx, fastProblem(70), nil); apiStatus(t, err).StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %v", err)
	}
	<-s.sessDone
	if active, _, _ := s.sessions.stats(); active != 0 {
		t.Fatalf("%d sessions still open after drain", active)
	}
}

// TestSessionZeroTrafficMetrics is the zero-traffic contract: a daemon
// that has never seen a session exports every session series as a plain
// zero — never NaN — so dashboards and the CI smoke can assert on them
// unconditionally.
func TestSessionZeroTrafficMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	met, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if strings.Contains(met, "NaN") {
		t.Fatal("zero-traffic /metrics contains NaN")
	}
	for _, series := range []string{
		"rentmind_sessions_active",
		"rentmind_sessions_created_total",
		"rentmind_sessions_evicted_total",
		"rentmind_session_events_total",
		"rentmind_session_warm_resolves_total",
		"rentmind_session_cold_resolves_total",
		"rentmind_session_churn_moves_total",
		"rentmind_session_churn_ratio",
	} {
		if got := metricValue(t, met, series); got != 0 {
			t.Errorf("%s = %g with no traffic, want 0", series, got)
		}
	}
	for _, path := range []string{"warm", "cold"} {
		needle := fmt.Sprintf("rentmind_session_resolve_ms{path=%q,quantile=\"0.5\"} 0", path)
		if !strings.Contains(met, needle) {
			t.Errorf("missing zero %s resolve window: want %q", path, needle)
		}
	}
}

// holdLease makes the local solver block, starts a /v1/solve and returns
// once that solve holds a worker lease: on a Workers: 1 daemon it holds
// the only one. unblock lets the solve finish and waits for its answer.
// Session re-solves do not run through localSolve, so they are not
// blocked themselves.
func holdLease(t *testing.T, c *client.Client) (unblock func()) {
	t.Helper()
	release := make(chan struct{})
	leased := make(chan struct{})
	localSolve = func(ctx context.Context, p *rentmin.Problem, opts *rentmin.SolveOptions) (rentmin.Solution, error) {
		close(leased)
		<-release
		return rentmin.SolveContext(ctx, p, opts)
	}
	t.Cleanup(func() { localSolve = rentmin.SolveContext })
	done := make(chan error, 1)
	go func() {
		_, err := c.Solve(context.Background(), fastProblem(70), nil)
		done <- err
	}()
	<-leased
	var once sync.Once
	return func() {
		once.Do(func() {
			close(release)
			if err := <-done; err != nil {
				t.Errorf("the lease-holding solve: %v", err)
			}
		})
	}
}

// TestSessionInvalidEventsTakeNoLease: an event that fails validation
// takes no worker lease, so a request of only invalid events is answered
// while another solve holds the daemon's only lease.
func TestSessionInvalidEventsTakeNoLease(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxTarget: 100})
	ctx := context.Background()
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	unblock := holdLease(t, c)
	defer unblock()

	wait, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	results, st, err := sess.Events(wait,
		client.SessionEvent{Kind: "target_change"}, // missing operand
		client.SessionEvent{Kind: "bogus"},         // unknown kind
		client.TargetChangeEvent(101),              // above MaxTarget
	)
	if err != nil {
		t.Fatalf("invalid events while the lease is held: %v", err)
	}
	for i, res := range results {
		if res.Error == "" || res.Allocation != nil {
			t.Errorf("invalid event %d = %+v, want an error and no allocation", i, res)
		}
	}
	if st.Events != 0 || st.Target != 70 {
		t.Errorf("state after invalid events = %+v, want it unchanged", st)
	}
}

// TestSessionOperandErrorsTakeNoLease: an event the session itself
// rejects (rentmin.Session.Validate) is answered while another solve
// holds the daemon's only lease, with the error text Apply gives it, and
// leaves no flight-recorder record.
func TestSessionOperandErrorsTakeNoLease(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	one := fastProblem(70)
	one.App.Graphs = one.App.Graphs[:1]
	single, _, err := c.NewSession(ctx, one, nil)
	if err != nil {
		t.Fatalf("NewSession (one graph): %v", err)
	}
	unblock := holdLease(t, c)
	defer unblock()

	wait, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	results, st, err := sess.Events(wait,
		client.TargetChangeEvent(-1),
		client.PriceChangeEvent(99, 5),
		client.PriceChangeEvent(1, -5),
		client.OutageEvent(-1),
		client.RecipeDepartureEvent(7),
		client.RecipeArrivalEvent(rentmin.NewChain("bad", 9)),
	)
	if err != nil {
		t.Fatalf("operand errors while the lease is held: %v", err)
	}
	last, _, err := single.Events(wait, client.RecipeDepartureEvent(0))
	if err != nil {
		t.Fatalf("last-graph departure while the lease is held: %v", err)
	}
	want := []string{
		"session: invalid event: negative target -1",
		"session: invalid event: machine type 99 out of range [0,4)",
		"session: invalid event: negative price -5",
		"session: invalid event: machine type -1 out of range [0,4)",
		"session: invalid event: graph index 7 out of range [0,3)",
		`session: invalid event: graph "bad": task 0 has type 9 outside [0,4)`,
		"session: invalid event: the last graph cannot depart",
	}
	for i, res := range append(results, last...) {
		if res.Error != want[i] || res.Allocation != nil {
			t.Errorf("event %d = error %q, allocation %v; want %q and none", i, res.Error, res.Allocation, want[i])
		}
	}
	if st.Events != 0 || st.Target != 70 {
		t.Errorf("state after rejected events = %+v, want it unchanged", st)
	}
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	for _, rec := range recs.Solves {
		if rec.Endpoint == "session" && rec.Item != -1 {
			t.Errorf("a rejected event left record %s/%d %q", rec.Endpoint, rec.Item, rec.Error)
		}
	}
}

// TestSessionEventWaitingAtDrainIsNotApplied: an event still waiting for
// a lease when the daemon drains is that event's error in a 200, and the
// session stays as it was.
func TestSessionEventWaitingAtDrainIsNotApplied(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	unblock := holdLease(t, c)
	defer unblock()

	type reply struct {
		results []client.SessionResolve
		st      client.SessionState
		err     error
	}
	got := make(chan reply, 1)
	go func() {
		results, st, err := sess.Events(ctx, client.TargetChangeEvent(80))
		got <- reply{results, st, err}
	}()
	waitHealth(t, c, "the event waits for the lease", func(h client.Health) bool { return h.QueueDepth == 1 })
	s.BeginDrain()
	r := <-got
	if r.err != nil {
		t.Fatalf("events request waiting at drain: %v, want a 200", r.err)
	}
	if want := "not applied: server is shutting down"; r.results[0].Error != want {
		t.Errorf("event error %q, want %q", r.results[0].Error, want)
	}
	if r.st.Events != 0 || r.st.Target != 70 || r.st.Cost != 124 {
		t.Errorf("state after the unapplied event = %+v, want it unchanged", r.st)
	}
}

// TestSessionResolvesAreRecorded: a create and each event re-solve leave
// one flight-recorder record and one queue-wait sample, like a /v1/solve
// and each /v1/batch item.
func TestSessionResolvesAreRecorded(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	results, _, err := sess.Events(ctx, client.TargetChangeEvent(80), client.TargetChangeEvent(70))
	if err != nil || results[0].Error != "" || results[1].Error != "" {
		t.Fatalf("Events: %v %+v", err, results)
	}
	recs, err := c.DebugSolves(ctx, 0)
	if err != nil {
		t.Fatalf("DebugSolves: %v", err)
	}
	if len(recs.Solves) != 3 {
		t.Fatalf("flight recorder holds %d records, want 3", len(recs.Solves))
	}
	// Newest first: event 1, event 0, then the create.
	for i, want := range []int{1, 0, -1} {
		rec := recs.Solves[i]
		if rec.Endpoint != "session" || rec.Item != want || rec.Error != "" {
			t.Errorf("record %d = %s/%d %q, want session/%d without error", i, rec.Endpoint, rec.Item, rec.Error, want)
		}
	}
	if recs.Solves[2].Cost != 124 || !recs.Solves[2].Proven || recs.Solves[2].LPSolves <= 0 {
		t.Errorf("create record %+v, want proven cost 124 with search counters", recs.Solves[2])
	}
	if n := s.met.qw.Count(); n != 3 {
		t.Errorf("rentmind_queue_wait_ms holds %d samples, want 3", n)
	}
}

// TestSessionDeleteCountsCommittedEvents: DELETE reports the events the
// session committed, not the events it was sent.
func TestSessionDeleteCountsCommittedEvents(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sess, _, err := c.NewSession(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, _, err := sess.Events(ctx,
		client.TargetChangeEvent(80),
		client.SessionEvent{Kind: "bogus"}, // fails validation
		client.TargetChangeEvent(-1),       // the session rejects it
		client.TargetChangeEvent(90),
	); err != nil {
		t.Fatalf("Events: %v", err)
	}
	req, err := http.NewRequest(http.MethodDelete, c.BaseURL()+"/v1/sessions/"+sess.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	var closed client.CloseSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&closed); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE answered %d (%v)", resp.StatusCode, err)
	}
	if closed.Events != 2 {
		t.Errorf("DELETE reports %d events, want the 2 committed", closed.Events)
	}
}

// TestSessionCreateDeadlineBeforeStartIs504: a create whose time limit
// passes before its solve starts answers as /v1/solve does in that case.
func TestSessionCreateDeadlineBeforeStartIs504(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, DefaultTimeLimit: time.Nanosecond})
	_, _, err := c.NewSession(context.Background(), fastProblem(70), nil)
	e := apiStatus(t, err)
	if want := "time limit hit before any feasible allocation was found"; e.StatusCode != http.StatusGatewayTimeout || e.Message != want {
		t.Errorf("create under a 1 ns limit: %d %q, want 504 %q", e.StatusCode, e.Message, want)
	}
}
