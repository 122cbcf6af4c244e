package client_test

// Elastic-fleet and content-addressed-cache integration tests: real
// coordinator and worker daemons over loopback HTTP, membership changing
// mid-run — the in-process version of the CI distributed-smoke job's
// elasticity leg.

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

// metricValue scrapes one un-labelled series from a daemon's /metrics.
func metricValue(t *testing.T, c *client.Client, name string) int {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("%s not found in metrics", name)
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never reached: %s", what)
}

// TestElasticWorkerJoinsMidBatch: a worker registering with a live
// coordinator must start receiving queued work immediately. The only
// seeded worker's single seat is pinned by a long solve, so a following
// batch can make no progress until the second worker joins — every batch
// item lands on the newcomer.
func TestElasticWorkerJoinsMidBatch(t *testing.T) {
	pool, dialer, err := client.NewElasticFleet(context.Background(), nil, &client.FleetConfig{Seed: 5})
	if err != nil {
		t.Fatalf("NewElasticFleet: %v", err)
	}
	coord := server.New(server.Config{SolverPool: pool, WorkerDialer: dialer})
	hsCoord := httptest.NewServer(coord)
	defer func() {
		hsCoord.Close()
		coord.Close()
	}()
	cc := client.New(hsCoord.URL)
	ctx := context.Background()

	hsA, _ := startWorker(t) // Workers: 2 — but we occupy both seats
	if _, err := cc.RegisterWorker(ctx, hsA.URL); err != nil {
		t.Fatalf("register seed worker: %v", err)
	}

	// Pin every seat of worker A with slow solves the coordinator routes
	// to it, so the batch below must wait for new capacity.
	slow := slowProblem(t)
	slowCtx, cancelSlow := context.WithCancel(ctx)
	defer cancelSlow()
	slowDone := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { slowDone <- struct{}{} }()
			_, _ = cc.Solve(slowCtx, slow, &client.Options{TimeLimit: 30 * time.Second})
		}()
	}
	cA := client.New(hsA.URL)
	waitFor(t, "worker A seats pinned", func() bool {
		h, err := cA.Health(context.Background())
		return err == nil && h.InFlight == 2
	})

	problems := fleetProblems(t)
	want, err := rentmin.SolveBatch(problems, &rentmin.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}
	batchDone := make(chan error, 1)
	var sols []client.Solution
	go func() {
		var err error
		sols, err = cc.SolveBatch(ctx, problems, &client.Options{TimeLimit: 60 * time.Second})
		batchDone <- err
	}()
	// The batch is admitted but starved: no free seat anywhere.
	waitFor(t, "batch queued behind the pinned seats", func() bool {
		h, err := cc.Health(context.Background())
		return err == nil && h.InFlight >= 2
	})

	// Elasticity: a new worker registers mid-batch and the queue drains
	// through it.
	hsB, _ := startWorker(t)
	if _, err := cc.RegisterWorker(ctx, hsB.URL); err != nil {
		t.Fatalf("register mid-batch worker: %v", err)
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := range sols {
		if sols[i].Error != "" {
			t.Fatalf("problem %d failed: %s", i, sols[i].Error)
		}
		if sols[i].Allocation.Cost != want[i].Alloc.Cost {
			t.Errorf("problem %d: cost %d != local cost %d", i, sols[i].Allocation.Cost, want[i].Alloc.Cost)
		}
	}
	if b := solvesTotal(t, client.New(hsB.URL)); b != len(problems) {
		t.Errorf("mid-batch joiner solved %d of %d items (worker A was pinned)", b, len(problems))
	}
	cancelSlow()
	<-slowDone
	<-slowDone
}

// slowProblem is the Fig8-scale anvil shared with the server tests.
func slowProblem(t *testing.T) *rentmin.Problem {
	t.Helper()
	p, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 10, MinTasks: 100, MaxTasks: 200, MutatePercent: 0.3,
		NumTypes: 50, CostMin: 1, CostMax: 100,
		ThroughputMin: 5, ThroughputMax: 25,
	}, 0xF198)
	if err != nil {
		t.Fatal(err)
	}
	p.Target = 120
	return p
}

// TestWorkerReuploadsAfterEviction: a daemon whose LRU cache dropped a
// hash answers 412; the Worker adapter must re-upload within the same
// dispatch instead of surfacing a fault.
func TestWorkerReuploadsAfterEviction(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, ProblemCacheSize: 1})
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	w := client.NewWorker(client.New(hs.URL), nil)
	ctx := context.Background()

	p1 := rentmin.IllustratingExample()
	p1.Target = 70
	p2, err := rentmin.Generate(rentmin.GenConfig{
		NumGraphs: 2, MinTasks: 2, MaxTasks: 3, MutatePercent: 0.5,
		NumTypes: 3, CostMin: 1, CostMax: 20,
		ThroughputMin: 5, ThroughputMax: 25,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2.Target = 10

	solve := func(p *rentmin.Problem, what string) {
		t.Helper()
		if _, err := w.Solve(ctx, p); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	solve(p1, "first solve (uploads p1)")
	solve(p2, "second solve (uploads p2, evicts p1 from the size-1 cache)")
	// The adapter still believes the daemon knows p1: the solve hits 412
	// and must recover by re-uploading — three uploads total, no faults.
	solve(p1, "third solve (412 → re-upload → retry)")

	c := client.New(hs.URL)
	if got := metricValue(t, c, "rentmind_problem_uploads_total"); got != 3 {
		t.Errorf("uploads_total = %d, want 3 (p1, p2, p1-again)", got)
	}
	if got := metricValue(t, c, "rentmind_problem_cache_evictions_total"); got < 2 {
		t.Errorf("evictions_total = %d, want >= 2 under a size-1 cache", got)
	}
}

// TestSweepUploadsOncePerWorker pins the acceptance criterion: sweeping
// one instance across many targets ships the problem document to each
// worker exactly once — dispatches greatly outnumber uploads.
func TestSweepUploadsOncePerWorker(t *testing.T) {
	hsA, _ := startWorker(t)
	hsB, _ := startWorker(t)
	fleet, err := client.NewFleet(context.Background(), []string{hsA.URL, hsB.URL}, nil)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}

	targets := []int{10, 20, 30, 40, 50, 60, 70, 25, 35, 45, 55, 65}
	problems := make([]*rentmin.Problem, len(targets))
	for i, target := range targets {
		p := rentmin.IllustratingExample()
		p.Target = target
		problems[i] = p
	}
	sols, err := fleet.SolveBatch(problems, nil)
	if err != nil {
		t.Fatalf("sweep batch: %v", err)
	}
	for i := range sols {
		if sols[i].Alloc.Cost <= 0 {
			t.Errorf("target %d: no solution", targets[i])
		}
	}

	total := 0
	for _, hs := range []*httptest.Server{hsA, hsB} {
		c := client.New(hs.URL)
		solves := solvesTotal(t, c)
		uploads := metricValue(t, c, "rentmind_problem_uploads_total")
		total += solves
		if solves > 0 && uploads != 1 {
			t.Errorf("worker %s: %d uploads for %d same-instance solves, want exactly 1", hs.URL, uploads, solves)
		}
	}
	if total != len(targets) {
		t.Errorf("workers solved %d items for a %d-target sweep", total, len(targets))
	}
}
