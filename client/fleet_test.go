package client_test

// Fleet integration tests: a real coordinator dispatching over real
// worker daemons, all over loopback HTTP — the in-process version of the
// CI distributed-smoke job.

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// fleetProblems builds a batch with known-distinct shapes; the last item
// is the paper's Section VII example (cost 124 at target 70).
func fleetProblems(t *testing.T) []*rentmin.Problem {
	t.Helper()
	var ps []*rentmin.Problem
	for i, target := range []int{20, 45, 70, 30, 55} {
		p, err := rentmin.Generate(rentmin.GenConfig{
			NumGraphs: 3 + i%2, MinTasks: 2, MaxTasks: 4, MutatePercent: 0.5,
			NumTypes: 3, CostMin: 1, CostMax: 30,
			ThroughputMin: 5, ThroughputMax: 25,
		}, uint64(2000+i))
		if err != nil {
			t.Fatal(err)
		}
		p.Target = target
		ps = append(ps, p)
	}
	ex := rentmin.IllustratingExample()
	ex.Target = 70
	return append(ps, ex)
}

// startWorker boots one real rentmind worker daemon on loopback.
func startWorker(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs, srv
}

// solvesTotal scrapes rentmind_solves_total from a daemon's /metrics.
func solvesTotal(t *testing.T, c *client.Client) int {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "rentmind_solves_total "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("rentmind_solves_total not found in metrics")
	return 0
}

func TestFleetBatchSpansWorkersAndMatchesLocal(t *testing.T) {
	problems := fleetProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}

	hsA, _ := startWorker(t)
	hsB, _ := startWorker(t)
	fleet, err := client.NewFleet(context.Background(), []string{hsA.URL, hsB.URL}, nil)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if fleet.Workers() != 4 {
		t.Errorf("fleet capacity = %d, want 4 (2 workers × 2 discovered)", fleet.Workers())
	}

	sols, err := fleet.SolveBatch(problems, nil)
	if err != nil {
		t.Fatalf("fleet batch: %v", err)
	}
	for i := range sols {
		if sols[i].Alloc.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: fleet cost %d != local cost %d", i, sols[i].Alloc.Cost, want[i].Alloc.Cost)
		}
	}
	// The batch provably spans processes: both daemons counted solves.
	a, b := solvesTotal(t, client.New(hsA.URL)), solvesTotal(t, client.New(hsB.URL))
	if a == 0 || b == 0 {
		t.Errorf("batch did not span both workers: solves A=%d B=%d", a, b)
	}
	if a+b != len(problems) {
		t.Errorf("workers solved %d items for a %d-problem batch", a+b, len(problems))
	}
}

func TestFleetSurvivesKilledWorker(t *testing.T) {
	problems := fleetProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}

	hsA, _ := startWorker(t)
	hsB, _ := startWorker(t)
	fleet, err := client.NewFleet(context.Background(), []string{hsA.URL, hsB.URL}, &client.FleetConfig{Seed: 7})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}

	// Kill worker B after capacity discovery: every dispatch to it now
	// fails at the transport (connection refused), exactly like a
	// SIGKILLed process, and must be re-dispatched to worker A.
	hsB.Close()

	sols, err := fleet.SolveBatch(problems, nil)
	if err != nil {
		t.Fatalf("batch with killed worker: %v", err)
	}
	for i := range sols {
		if sols[i].Alloc.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: cost %d != local cost %d", i, sols[i].Alloc.Cost, want[i].Alloc.Cost)
		}
	}
	if a := solvesTotal(t, client.New(hsA.URL)); a != len(problems) {
		t.Errorf("surviving worker solved %d of %d items", a, len(problems))
	}
	var deadStats *rentmin.WorkerStatus
	for _, ws := range fleet.WorkerStats() {
		if ws.Name == hsB.URL {
			ws := ws
			deadStats = &ws
		}
	}
	if deadStats == nil {
		t.Fatalf("killed worker missing from WorkerStats")
	}
	if deadStats.Faults == 0 {
		t.Errorf("killed worker recorded no faults: %+v", *deadStats)
	}
}

func TestCoordinatorServesBatchOverFleet(t *testing.T) {
	problems := fleetProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}

	// Two worker daemons, one coordinator daemon dispatching to them —
	// all real servers speaking the real wire protocol.
	hsA, _ := startWorker(t)
	hsB, _ := startWorker(t)
	fleet, err := client.NewFleet(context.Background(), []string{hsA.URL, hsB.URL}, nil)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	coord := server.New(server.Config{SolverPool: fleet})
	hsCoord := httptest.NewServer(coord)
	defer func() {
		hsCoord.Close()
		coord.Close() // closes the fleet pool it owns
	}()

	cc := client.New(hsCoord.URL)
	cap, err := cc.Capacity(context.Background())
	if err != nil {
		t.Fatalf("coordinator capacity: %v", err)
	}
	if cap.Workers != 4 {
		t.Errorf("coordinator capacity = %d, want the fleet's 4", cap.Workers)
	}

	sols, err := cc.SolveBatch(context.Background(), problems, &client.Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatalf("coordinator batch: %v", err)
	}
	for i := range sols {
		if sols[i].Error != "" {
			t.Fatalf("problem %d failed: %s", i, sols[i].Error)
		}
		if sols[i].Allocation.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: coordinator cost %d != local cost %d", i, sols[i].Allocation.Cost, want[i].Alloc.Cost)
		}
	}

	// The coordinator's /metrics carries the fleet health gauges.
	text, err := cc.Metrics(context.Background())
	if err != nil {
		t.Fatalf("coordinator metrics: %v", err)
	}
	for _, series := range []string{"rentmind_worker_up", "rentmind_worker_capacity", "rentmind_worker_dispatches_total", "rentmind_worker_faults_total"} {
		if !strings.Contains(text, series+"{worker=") {
			t.Errorf("coordinator /metrics missing %s series", series)
		}
	}
	a, b := solvesTotal(t, client.New(hsA.URL)), solvesTotal(t, client.New(hsB.URL))
	if a+b != len(problems) {
		t.Errorf("workers solved %d items for a %d-problem coordinator batch", a+b, len(problems))
	}
}
