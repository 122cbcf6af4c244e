// Example service demonstrates the full rentmind serving path in one
// process: it starts the batch-solve service from internal/server on a
// loopback listener, then drives it with the typed client from
// rentmin/client — a health check, a single solve (the paper's Section
// VII example, expected cost 124 at target 70), a batch over several
// targets, a deliberately oversize problem bouncing off admission
// control, and finally a metrics scrape and a graceful drain.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

func main() {
	log.SetFlags(0)

	// Start the service on a loopback port, exactly as cmd/rentmind does.
	srv := server.New(server.Config{
		Workers:   2,
		MaxGraphs: 8, // tight admission bounds, to demonstrate a 422 below
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	ctx := context.Background()
	c := client.New("http://" + ln.Addr().String())

	health, err := c.Health(ctx)
	if err != nil {
		log.Fatalf("health: %v", err)
	}
	fmt.Printf("health:  %s (%d workers)\n", health.Status, health.Workers)

	// One solve: the illustrating example at target 70 costs 124/h.
	problem := rentmin.IllustratingExample()
	sol, err := c.Solve(ctx, problem, &client.Options{Target: 70, TimeLimit: 5 * time.Second})
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	fmt.Printf("solve:   target 70 -> cost %d/h, split %v, proven=%v (%d nodes)\n",
		sol.Allocation.Cost, sol.Allocation.GraphThroughput, sol.Proven, sol.Nodes)

	// A batch: the same application at several targets, solved
	// concurrently on the service's pool, results in input order.
	targets := []int{10, 40, 70, 100}
	batch := make([]*rentmin.Problem, len(targets))
	for i, t := range targets {
		p := problem.Clone()
		p.Target = t
		batch[i] = p
	}
	sols, err := c.SolveBatch(ctx, batch, &client.Options{TimeLimit: 10 * time.Second})
	if err != nil {
		log.Fatalf("batch: %v", err)
	}
	for i, s := range sols {
		fmt.Printf("batch:   target %3d -> cost %d/h\n", targets[i], s.Allocation.Cost)
	}

	// Admission control: a problem over the configured graph bound never
	// reaches the solver — the daemon answers 422.
	big := problem.Clone()
	for len(big.App.Graphs) <= 8 {
		big.App.Graphs = append(big.App.Graphs, big.App.Graphs[0])
	}
	_, err = c.Solve(ctx, big, nil)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		fmt.Printf("admission: HTTP %d — %s\n", apiErr.StatusCode, apiErr.Message)
	} else {
		log.Fatalf("expected an admission rejection, got %v", err)
	}

	// Metrics: the solver counters the daemon accumulated for the calls
	// above.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "rentmind_solves_total") ||
			strings.HasPrefix(line, "rentmind_lp_iterations_total") ||
			strings.HasPrefix(line, "rentmind_bb_nodes_total") {
			fmt.Printf("metrics: %s\n", line)
		}
	}

	// Graceful drain: health flips to draining, in-flight work finishes.
	srv.BeginDrain()
	if health, err = c.Health(ctx); err != nil {
		log.Fatalf("health during drain: %v", err)
	}
	fmt.Printf("drain:   health now %q\n", health.Status)
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	srv.Close()
}
