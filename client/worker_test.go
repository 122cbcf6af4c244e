package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// TestWorkerForwardsDeadline pins what a Worker puts on the wire: the
// context's remaining budget, less a grace, as time_limit_ms; no limit
// without a deadline; and no request at all once the budget is spent.
func TestWorkerForwardsDeadline(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	var mu sync.Mutex
	requests := 0
	var limits []int64 // time_limit_ms of each POST /v1/solve
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			body, err := io.ReadAll(r.Body)
			var req client.SolveRequest
			if err == nil {
				err = json.Unmarshal(body, &req)
			}
			if err != nil {
				t.Errorf("read solve request: %v", err)
			}
			limits = append(limits, req.TimeLimitMs)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	sent := func() (int, []int64) {
		mu.Lock()
		defer mu.Unlock()
		return requests, append([]int64(nil), limits...)
	}

	p := rentmin.IllustratingExample()
	p.Target = 70
	w := client.NewWorker(client.New(hs.URL), nil)
	requested := 7 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), requested)
	defer cancel()
	sol, err := w.Solve(ctx, p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Alloc.Cost != 124 || !sol.Proven {
		t.Errorf("cost %d proven %v, want 124 proven", sol.Alloc.Cost, sol.Proven)
	}
	// The grace lets the worker answer before ctx cuts the connection.
	maxMs := (requested - 400*time.Millisecond).Milliseconds()
	if _, got := sent(); len(got) != 1 || got[0] <= 0 || got[0] > maxMs {
		t.Fatalf("time_limit_ms sent = %v, want one in (0, %d]", got, maxMs)
	}

	// Without a deadline the daemon applies its own default.
	if _, err := w.Solve(context.Background(), p); err != nil {
		t.Fatalf("Solve without a deadline: %v", err)
	}
	if _, got := sent(); len(got) != 2 || got[1] != 0 {
		t.Fatalf("time_limit_ms sent = %v, want 0 for a context without a deadline", got)
	}

	// A spent budget fails fast: no upload, no solve, and no worker fault.
	before, _ := sent()
	spent, cancelSpent := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelSpent()
	fresh := client.NewWorker(client.New(hs.URL), nil)
	_, err = fresh.Solve(spent, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Solve on a spent budget: err = %v, want context.DeadlineExceeded", err)
	}
	var fault *rentmin.WorkerFaultError
	if errors.As(err, &fault) {
		t.Errorf("spent budget reported as a worker fault: %v", err)
	}
	if after, _ := sent(); after != before {
		t.Errorf("spent budget sent %d requests, want none", after-before)
	}
}

// TestWorkerFaultsAtOnceOnDrainingDaemon: draining never clears, so a
// Worker does not retry a 503 against its own daemon. One request, then
// a worker fault that sends the problem to another fleet member.
func TestWorkerFaultsAtOnceOnDrainingDaemon(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	var requests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	srv.BeginDrain()

	p := rentmin.IllustratingExample()
	p.Target = 70
	_, err := client.NewWorker(client.New(hs.URL), nil).Solve(context.Background(), p)
	var fault *rentmin.WorkerFaultError
	if !errors.As(err, &fault) {
		t.Fatalf("Solve on a draining daemon: err = %v, want a *rentmin.WorkerFaultError", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("Solve on a draining daemon sent %d requests, want 1", n)
	}
}
