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

func TestPoolRunsEveryTask(t *testing.T) {
	p := New(3)
	defer p.Close()
	var done [50]atomic.Bool
	if err := p.RunContext(context.Background(), len(done), func(_ context.Context, i int) error {
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
	p := New(4)
	defer p.Close()
	boom := errors.New("boom")
	err := p.RunContext(context.Background(), 20, func(_ context.Context, i int) error {
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
	p := New(workers)
	defer p.Close()
	var cur, peak atomic.Int64
	if err := p.RunContext(context.Background(), 30, func(context.Context, int) error {
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
		t.Errorf("observed %d concurrent tasks with %d workers", peak.Load(), workers)
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d, want %d", got, want)
	}
}

func TestPoolReusableAcrossRuns(t *testing.T) {
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	// Two concurrent RunContext calls plus a sequential reuse.
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			_ = p.RunContext(context.Background(), 10, func(context.Context, int) error { total.Add(1); return nil })
		}()
	}
	wg.Wait()
	if err := p.RunContext(context.Background(), 5, func(context.Context, int) error { total.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 25 {
		t.Errorf("ran %d tasks, want 25", total.Load())
	}
}

func TestPoolZeroTasks(t *testing.T) {
	p := New(1)
	defer p.Close()
	if err := p.RunContext(context.Background(), 0, func(context.Context, int) error { return errors.New("never") }); err != nil {
		t.Errorf("RunContext(0) = %v", err)
	}
}
