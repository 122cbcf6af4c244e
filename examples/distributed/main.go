// Example distributed demonstrates the distributed solver pool in one
// process: it starts two rentmind worker daemons on loopback listeners,
// builds a coordinator fleet over them with rentmin/client.NewFleet —
// discovering each worker's in-flight cap from GET /v1/capacity — and
// pushes a batch through the remote-backed rentmin.SolverPool. The batch
// items spread across both workers, results land in input order, and the
// costs are identical to a purely local solve. It then kills one worker
// and runs a second batch: every item dispatched to the dead worker
// faults, is re-dispatched to the survivor, and the batch still
// completes with the same costs — a dead worker degrades throughput, not
// correctness.
//
// Across real machines the topology is the same, with cmd/rentmind
// playing both roles: plain daemons as workers, plus one daemon started
// with -workers-endpoints as the coordinator. See docs/distributed.md.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// startWorker boots one rentmind worker daemon on a loopback port,
// exactly as `rentmind -solve-workers 2` does, and returns its base URL
// plus a kill switch.
func startWorker() (url string, kill func(), err error) {
	srv := server.New(server.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	kill = func() {
		// Abrupt stop — the moral equivalent of SIGKILL: in-flight
		// requests die mid-connection, new ones get connection refused.
		httpSrv.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), kill, nil
}

// batch builds a few instances of different shapes; the last one is the
// paper's Section VII example (cost 124 at target 70).
func batch() ([]*rentmin.Problem, error) {
	var ps []*rentmin.Problem
	for i, target := range []int{20, 45, 70, 30} {
		p, err := rentmin.Generate(rentmin.GenConfig{
			NumGraphs: 3, MinTasks: 2, MaxTasks: 4, MutatePercent: 0.5,
			NumTypes: 3, CostMin: 1, CostMax: 30,
			ThroughputMin: 5, ThroughputMax: 25,
		}, uint64(3000+i))
		if err != nil {
			return nil, err
		}
		p.Target = target
		ps = append(ps, p)
	}
	ex := rentmin.IllustratingExample()
	ex.Target = 70
	return append(ps, ex), nil
}

func printStats(fleet *rentmin.SolverPool) {
	for _, ws := range fleet.WorkerStats() {
		fmt.Printf("  %-28s healthy=%-5v capacity=%d dispatched=%d succeeded=%d faults=%d\n",
			ws.Name, ws.Healthy, ws.Capacity, ws.Dispatched, ws.Succeeded, ws.Faults)
	}
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	urlA, killA, err := startWorker()
	if err != nil {
		log.Fatal(err)
	}
	defer killA()
	urlB, killB, err := startWorker()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workers up: %s, %s\n", urlA, urlB)

	fleet, err := client.NewFleet(ctx, []string{urlA, urlB}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet capacity discovered via /v1/capacity: %d concurrent solves\n\n", fleet.Workers())

	problems, err := batch()
	if err != nil {
		log.Fatal(err)
	}
	local, err := rentmin.SolveBatch(problems, nil)
	if err != nil {
		log.Fatal(err)
	}

	sols, err := fleet.SolveBatch(problems, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("batch across two workers (costs vs local solve):")
	for i, sol := range sols {
		match := "=="
		if sol.Alloc.Cost != local[i].Alloc.Cost {
			match = "!=" // never happens: the backends agree by construction
		}
		fmt.Printf("  problem %d: target %3d -> cost %3d/h %s local %3d/h\n",
			i, problems[i].Target, sol.Alloc.Cost, match, local[i].Alloc.Cost)
	}
	printStats(fleet)

	fmt.Printf("\nkilling worker %s mid-fleet and re-running the batch...\n", urlB)
	killB()
	sols, err = fleet.SolveBatch(problems, nil)
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for i, sol := range sols {
		if sol.Alloc.Cost != local[i].Alloc.Cost {
			ok = false
		}
	}
	fmt.Printf("batch completed after re-dispatch, all %d costs correct: %v\n", len(sols), ok)
	printStats(fleet)
}
