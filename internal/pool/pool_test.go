package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// inProcess builds a pool of one member with the given capacity: the
// shape of an in-process rentmin.SolverPool and of an experiment sweep.
func inProcess(capacity int) *Pool[struct{}] {
	return New([]RemoteSpec[struct{}]{{Name: "local", Capacity: capacity}}, RemoteConfig{})
}

func TestPoolRunsEveryTask(t *testing.T) {
	p := inProcess(3)
	var done [50]atomic.Bool
	if err := p.RunContext(context.Background(), len(done), func(_ context.Context, _ struct{}, i int) error {
		if done[i].Swap(true) {
			return fmt.Errorf("task %d ran twice", i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Errorf("task %d never ran", i)
		}
	}
}

func TestPoolReturnsLowestIndexError(t *testing.T) {
	p := inProcess(4)
	boom := errors.New("boom")
	err := p.RunContext(context.Background(), 20, func(_ context.Context, _ struct{}, i int) error {
		if i%2 == 1 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || err.Error() != "task 1: boom" {
		t.Errorf("err = %v, want task 1 (lowest failing index)", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err does not unwrap to the task error")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	p := inProcess(workers)
	var cur, peak atomic.Int64
	if err := p.RunContext(context.Background(), 30, func(context.Context, struct{}, int) error {
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > workers {
		t.Errorf("observed %d concurrent tasks with capacity %d", peak.Load(), workers)
	}
}

func TestPoolReusableAcrossRuns(t *testing.T) {
	p := inProcess(2)
	var total atomic.Int64
	var wg sync.WaitGroup
	// Two concurrent RunContext calls plus a sequential reuse.
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			_ = p.RunContext(context.Background(), 10, func(context.Context, struct{}, int) error { total.Add(1); return nil })
		}()
	}
	wg.Wait()
	if err := p.RunContext(context.Background(), 5, func(context.Context, struct{}, int) error { total.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 25 {
		t.Errorf("ran %d tasks, want 25", total.Load())
	}
}

func TestPoolZeroTasks(t *testing.T) {
	p := inProcess(1)
	if err := p.RunContext(context.Background(), 0, func(context.Context, struct{}, int) error { return errors.New("never") }); err != nil {
		t.Errorf("RunContext(0) = %v", err)
	}
}

// TestRunContextAllocations pins what the scheduler allocates per call:
// its queue, error slice and done channel, a goroutine per dispatch,
// and one shared wakeup channel per wait for a seat. A dispatch onto a
// free seat waits for none.
func TestRunContextAllocations(t *testing.T) {
	nop := func(context.Context, int, int) error { return nil }
	for _, c := range []struct {
		name  string
		specs []RemoteSpec[int]
		n     int
		max   float64
	}{
		{"one task on a free seat", []RemoteSpec[int]{{Name: "w0", Capacity: 1}}, 1, 4},
		{"8 tasks on 2x2 seats", []RemoteSpec[int]{{Name: "w0", Capacity: 2}, {Name: "w1", Capacity: 2, Worker: 1}}, 8, 15},
	} {
		p := New(c.specs, RemoteConfig{})
		got := testing.AllocsPerRun(200, func() {
			if err := p.RunContext(context.Background(), c.n, nop); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.2f allocs per RunContext, want at most %.0f", c.name, got, c.max)
		}
	}
}
