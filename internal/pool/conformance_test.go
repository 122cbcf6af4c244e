package pool

// The Pool conformance suite: every implementation must honor the same
// contract (results land by index, lowest-index error wins, cancellation
// skips unstarted tasks, panics are isolated), so the serving layers can
// swap a LocalPool for a RemotePool without re-auditing their semantics.
// The RemotePool under test is httptest-backed: every task round-trips
// through a real HTTP server first, so the remote dispatch path is
// exercised with genuine network scheduling and cancellation noise.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type taskFn = func(ctx context.Context, i int) error

// backend builds a fresh Pool and a decorator applied to every
// conformance task (the RemotePool backend inserts an HTTP hop).
type backend struct {
	make func(t *testing.T) (Pool, func(taskFn) taskFn)
}

func conformanceBackends() map[string]backend {
	return map[string]backend{
		"LocalPool": {make: func(t *testing.T) (Pool, func(taskFn) taskFn) {
			p := New(3)
			t.Cleanup(p.Close)
			return p, func(fn taskFn) taskFn { return fn }
		}},
		"RemotePool": {make: func(t *testing.T) (Pool, func(taskFn) taskFn) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
			}))
			t.Cleanup(srv.Close)
			p := NewRemote(
				[]RemoteSpec[string]{{Name: "a", Capacity: 2, Worker: "a"}, {Name: "b", Capacity: 1, Worker: "b"}},
				RemoteConfig{Backoff: func(int) time.Duration { return time.Millisecond }},
			)
			t.Cleanup(p.Close)
			hop := func(fn taskFn) taskFn {
				return func(ctx context.Context, i int) error {
					if _, ok := AssignedWorker[string](ctx); !ok {
						return errors.New("no worker assigned in remote task context")
					}
					req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
					if err != nil {
						return err
					}
					resp, err := srv.Client().Do(req)
					if err != nil {
						return err
					}
					resp.Body.Close()
					return fn(ctx, i)
				}
			}
			return p, hop
		}},
	}
}

func TestPoolConformance(t *testing.T) {
	for name, b := range conformanceBackends() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Run("ResultsLandByIndex", func(t *testing.T) {
				p, wrap := b.make(t)
				const n = 24
				out := make([]int64, n)
				var runs atomic.Int64
				err := p.RunContext(context.Background(), n, wrap(func(_ context.Context, i int) error {
					runs.Add(1)
					atomic.StoreInt64(&out[i], int64(i*i))
					return nil
				}))
				if err != nil {
					t.Fatalf("RunContext: %v", err)
				}
				if runs.Load() != n {
					t.Errorf("ran %d tasks, want %d", runs.Load(), n)
				}
				for i := range out {
					if got := atomic.LoadInt64(&out[i]); got != int64(i*i) {
						t.Errorf("out[%d] = %d, want %d", i, got, i*i)
					}
				}
			})

			t.Run("LowestIndexErrorWins", func(t *testing.T) {
				p, wrap := b.make(t)
				boom := errors.New("boom")
				err := p.RunContext(context.Background(), 20, wrap(func(_ context.Context, i int) error {
					if i%3 == 1 {
						return fmt.Errorf("task %d: %w", i, boom)
					}
					return nil
				}))
				if err == nil || !strings.Contains(err.Error(), "task 1:") {
					t.Errorf("err = %v, want task 1 (lowest failing index)", err)
				}
				if !errors.Is(err, boom) {
					t.Errorf("err does not unwrap to the task error")
				}
			})

			t.Run("PreCancelledSkipsEverything", func(t *testing.T) {
				p, wrap := b.make(t)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var ran atomic.Int64
				err := p.RunContext(ctx, 10, wrap(func(context.Context, int) error {
					ran.Add(1)
					return nil
				}))
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if ran.Load() != 0 {
					t.Errorf("%d tasks ran despite pre-cancelled context", ran.Load())
				}
			})

			t.Run("CancelMidwaySkipsUnstarted", func(t *testing.T) {
				p, wrap := b.make(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var ran atomic.Int64
				err := p.RunContext(ctx, 50, wrap(func(tctx context.Context, i int) error {
					ran.Add(1)
					if i == 0 {
						cancel()
					} else {
						// Hold the seat until task 0 cancels: otherwise the
						// other 49 tasks can all finish first, and a nil
						// error is then the contract's correct answer.
						<-tctx.Done()
					}
					return nil
				}))
				// Either unstarted tasks were skipped (ctx.Err surfaces
				// directly) or an in-flight hop aborted with the
				// cancellation — both unwrap to context.Canceled.
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled in the chain", err)
				}
				if n := ran.Load(); n >= 50 || n < 1 {
					t.Errorf("ran %d of 50 tasks, want an early stop", n)
				}
			})

			t.Run("PanicIsolation", func(t *testing.T) {
				p, wrap := b.make(t)
				var ran atomic.Int64
				err := p.RunContext(context.Background(), 12, wrap(func(_ context.Context, i int) error {
					if i == 3 {
						panic("kaboom")
					}
					ran.Add(1)
					return nil
				}))
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *PanicError", err)
				}
				if pe.Index != 3 {
					t.Errorf("PanicError.Index = %d, want 3", pe.Index)
				}
				if ran.Load() != 11 {
					t.Errorf("%d other tasks ran, want 11 (panic must not kill the pool)", ran.Load())
				}
			})

			t.Run("WorkersPositive", func(t *testing.T) {
				p, _ := b.make(t)
				if p.Workers() < 1 {
					t.Errorf("Workers() = %d, want >= 1", p.Workers())
				}
			})

			t.Run("ZeroTasks", func(t *testing.T) {
				p, wrap := b.make(t)
				if err := p.RunContext(context.Background(), 0, wrap(func(context.Context, int) error {
					return errors.New("never")
				})); err != nil {
					t.Errorf("RunContext(0) = %v", err)
				}
			})
		})
	}
}
