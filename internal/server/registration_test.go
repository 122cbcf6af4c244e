package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rentmin/client"
)

// newElasticCoordinator builds a coordinator server over an initially
// empty elastic fleet, returning its typed client.
func newElasticCoordinator(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	pool, dialer, err := client.NewElasticFleet(context.Background(), nil, &client.FleetConfig{Seed: 11})
	if err != nil {
		t.Fatalf("NewElasticFleet: %v", err)
	}
	cfg.SolverPool = pool // the server owns and closes it
	cfg.WorkerDialer = dialer
	return newTestServer(t, cfg)
}

// startWorkerDaemon boots a real rentmind worker daemon on loopback.
func startWorkerDaemon(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	srv := New(Config{Workers: workers})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs
}

func TestWorkerEndpointsAnswer501OnPlainDaemon(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.RegisterWorker(ctx, "http://example.invalid:1"); apiStatus(t, err).StatusCode != http.StatusNotImplemented {
		t.Errorf("register on plain daemon: want 501")
	}
	if _, err := c.FleetWorkers(ctx); apiStatus(t, err).StatusCode != http.StatusNotImplemented {
		t.Errorf("fleet list on plain daemon: want 501")
	}
	if err := c.DeregisterWorker(ctx, "http://example.invalid:1"); apiStatus(t, err).StatusCode != http.StatusNotImplemented {
		t.Errorf("deregister on plain daemon: want 501")
	}
}

func TestWorkerRegistrationLifecycle(t *testing.T) {
	_, c := newElasticCoordinator(t, Config{})
	ctx := context.Background()

	// An empty elastic fleet is a valid coordinator state.
	fleet, err := c.FleetWorkers(ctx)
	if err != nil {
		t.Fatalf("FleetWorkers: %v", err)
	}
	if len(fleet.Workers) != 0 {
		t.Fatalf("fresh elastic fleet lists %d workers, want 0", len(fleet.Workers))
	}

	hs := startWorkerDaemon(t, 2)
	fleet, err = c.RegisterWorker(ctx, hs.URL)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if len(fleet.Workers) != 1 || fleet.Workers[0].Name != hs.URL || fleet.Workers[0].Capacity != 2 {
		t.Fatalf("fleet after registration = %+v, want [%s cap 2]", fleet.Workers, hs.URL)
	}

	// Re-registration is idempotent (the periodic announce loop relies
	// on it) — a trailing slash normalizes to the same member.
	fleet, err = c.RegisterWorker(ctx, hs.URL+"/")
	if err != nil {
		t.Fatalf("re-RegisterWorker: %v", err)
	}
	if len(fleet.Workers) != 1 {
		t.Fatalf("re-registration duplicated the worker: %+v", fleet.Workers)
	}

	// The coordinator now dispatches real solves to it.
	sol, err := c.Solve(ctx, fastProblem(70), nil)
	if err != nil {
		t.Fatalf("Solve through registered worker: %v", err)
	}
	if sol.Allocation.Cost != 124 {
		t.Errorf("cost %d, want 124", sol.Allocation.Cost)
	}

	// And its fleet metrics reflect the elastic membership.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rentmind_fleet_size 1",
		"rentmind_fleet_capacity 2",
		"rentmind_worker_evictions_total 0",
		`rentmind_worker_up{worker="` + hs.URL + `"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	if err := c.DeregisterWorker(ctx, hs.URL); err != nil {
		t.Fatalf("DeregisterWorker: %v", err)
	}
	// The list keeps the tombstone (operators see eviction history), but
	// flags it removed and counts no live capacity.
	fleet, err = c.FleetWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(liveWorkers(fleet)); n != 0 {
		t.Errorf("fleet after deregistration has %d live workers, want 0: %+v", n, fleet.Workers)
	}
}

// TestFleetListingCarriesRTT: GET /v1/workers serves the pool's own
// worker snapshot, so the dispatch round-trip window /metrics exports is
// on the listing too once a dispatch has succeeded.
func TestFleetListingCarriesRTT(t *testing.T) {
	_, c := newElasticCoordinator(t, Config{})
	ctx := context.Background()
	hs := startWorkerDaemon(t, 2)
	if _, err := c.RegisterWorker(ctx, hs.URL); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	const solves = 3
	for i := 0; i < solves; i++ {
		if _, err := c.Solve(ctx, fastProblem(70), nil); err != nil {
			t.Fatalf("Solve %d: %v", i, err)
		}
	}
	resp, err := http.Get(serverURL(c) + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Workers []map[string]json.RawMessage `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/workers answered %d (%v)", resp.StatusCode, err)
	}
	if len(fleet.Workers) != 1 {
		t.Fatalf("fleet lists %d workers, want 1", len(fleet.Workers))
	}
	w := fleet.Workers[0]
	num := func(key string) float64 {
		t.Helper()
		var v float64
		if err := json.Unmarshal(w[key], &v); err != nil {
			t.Fatalf("key %q = %s: %v", key, w[key], err)
		}
		return v
	}
	if got, ok := num("rtt_samples"), num("succeeded"); got != solves || ok != solves {
		t.Errorf("rtt_samples %g, succeeded %g, want both %d", got, ok, solves)
	}
	if p50, p99 := num("rtt_p50_ms"), num("rtt_p99_ms"); !(p50 > 0 && p50 <= p99) {
		t.Errorf("rtt_p50_ms %g, rtt_p99_ms %g, want 0 < p50 <= p99", p50, p99)
	}
}

// liveWorkers filters a fleet listing down to current members.
func liveWorkers(fleet client.FleetResponse) []client.FleetWorker {
	var live []client.FleetWorker
	for _, w := range fleet.Workers {
		if !w.Removed {
			live = append(live, w)
		}
	}
	return live
}

func TestWorkerRegistrationRejectsBadEndpoints(t *testing.T) {
	_, c := newElasticCoordinator(t, Config{})
	ctx := context.Background()

	if _, err := c.RegisterWorker(ctx, "not a url"); apiStatus(t, err).StatusCode != http.StatusBadRequest {
		t.Errorf("malformed endpoint: want 400")
	}
	if _, err := c.RegisterWorker(ctx, "ftp://host:1"); apiStatus(t, err).StatusCode != http.StatusBadRequest {
		t.Errorf("non-http scheme: want 400")
	}
	// Reachable URL syntax, dead host: capacity discovery fails → 502,
	// and the fleet stays clean.
	if _, err := c.RegisterWorker(ctx, "http://127.0.0.1:1"); apiStatus(t, err).StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable worker: want 502")
	}
	fleet, err := c.FleetWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(liveWorkers(fleet)); n != 0 {
		t.Errorf("failed registrations leaked into the fleet: %+v", fleet.Workers)
	}

	if err := c.DeregisterWorker(ctx, "http://never.registered:1"); apiStatus(t, err).StatusCode != http.StatusNotFound {
		t.Errorf("deregister unknown: want 404")
	}
	resp, err := http.NewRequest(http.MethodDelete, serverURL(c)+"/v1/workers", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("deregister without ?endpoint=: %d, want 400", res.StatusCode)
	}
}

func TestWorkerRegistrationDuringDrain503(t *testing.T) {
	s, c := newElasticCoordinator(t, Config{})
	s.BeginDrain()
	if _, err := c.RegisterWorker(context.Background(), "http://127.0.0.1:1"); apiStatus(t, err).StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register while draining: want 503")
	}
}

// TestHealthLoopEvictsDeadWorker: the coordinator's probe loop must
// notice a killed worker and evict it after EvictStrikes failed probes —
// and a re-registration must revive it with clean health.
func TestHealthLoopEvictsDeadWorker(t *testing.T) {
	pool, dialer, err := client.NewElasticFleet(context.Background(), nil, &client.FleetConfig{Seed: 3, EvictStrikes: 2})
	if err != nil {
		t.Fatalf("NewElasticFleet: %v", err)
	}
	_, c := newTestServer(t, Config{
		SolverPool:     pool,
		WorkerDialer:   dialer,
		HealthInterval: 20 * time.Millisecond,
	})
	ctx := context.Background()

	hs := startWorkerDaemon(t, 2)
	if _, err := c.RegisterWorker(ctx, hs.URL); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	hs.Close() // SIGKILL-equivalent: every probe now fails at the transport

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fleet, err := c.FleetWorkers(ctx)
		if err != nil {
			t.Fatalf("FleetWorkers: %v", err)
		}
		if len(liveWorkers(fleet)) == 0 {
			metrics, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(metrics, "rentmind_worker_evictions_total 1") {
				t.Errorf("eviction not counted:\n%s", metrics)
			}
			// The replacement re-registers under the same name and works.
			hs2 := startWorkerDaemon(t, 2)
			if _, err := c.RegisterWorker(ctx, hs2.URL); err != nil {
				t.Fatalf("re-register after eviction: %v", err)
			}
			if sol, err := c.Solve(ctx, fastProblem(70), nil); err != nil || sol.Allocation.Cost != 124 {
				t.Fatalf("solve after revival: %v %+v", err, sol)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("health loop never evicted the killed worker")
}
