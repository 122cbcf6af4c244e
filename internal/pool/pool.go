// Package pool provides the task-pool abstraction shared by every
// parallel layer of the system: batch solving (rentmin.SolverPool) and
// experiment sweeps (internal/experiments). It is a leaf package so both
// can depend on it.
//
// Two implementations exist behind the Pool interface: LocalPool runs
// tasks on a fixed set of in-process goroutines, RemotePool dispatches
// them across the capacity of a fleet of remote executors (rentmind
// worker daemons, in practice) with per-worker backoff and re-dispatch
// on worker faults. Both share the same contract: results land by task
// index, the lowest-index task error wins, and cancellation skips tasks
// that have not started.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool runs n independent index-addressed tasks with bounded
// concurrency. Implementations bound concurrency, they do not create it
// per call — the idiomatic replacement for ad-hoc
// `for w := 0; w < workers; w++ { go ... }` loops.
//
// The shared contract, which the conformance suite in conformance_test.go
// pins for every implementation:
//
//   - every task that runs is invoked exactly once per dispatch, and its
//     outcome is recorded under its own index — results are ordered by
//     index no matter which worker finished first;
//   - Run and RunContext return the error of the lowest-index failing
//     task, independent of the completion schedule;
//   - once the context is done, tasks that have not started are never
//     started; started tasks are awaited. If no task failed but at least
//     one was skipped, RunContext returns ctx.Err();
//   - a panicking task is isolated: it becomes a *PanicError instead of
//     crashing the pool.
type Pool interface {
	// Workers returns the pool's concurrency bound: goroutines for a
	// LocalPool, total fleet capacity for a RemotePool.
	Workers() int
	// Run executes fn(0) … fn(n-1) on the pool and waits for all of them.
	Run(n int, fn func(i int) error) error
	// RunContext is Run with cancellation. fn receives a context derived
	// from ctx; a RemotePool annotates it with the assigned worker (see
	// AssignedWorker), a LocalPool passes ctx through unchanged. Tasks
	// already running are not interrupted by RunContext itself — fn must
	// observe its context to stop early.
	RunContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error
	// Close releases the pool's resources. The pool must not be used
	// after Close; pending Run calls complete first.
	Close()
}

// PanicError is a task panic converted into an error so one bad task
// cannot take down the pool's worker (or, for a RemotePool, the
// dispatcher). Run and RunContext return it.
type PanicError struct {
	// Index is the task that panicked.
	Index int
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", e.Index, e.Value)
}

// safeCall invokes fn(ctx, i), converting a panic into a *PanicError.
func safeCall(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// firstError returns the lowest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LocalPool is the in-process Pool: a fixed set of worker goroutines,
// started once and reused across Run calls, so a long-lived service can
// keep one pool and push every incoming batch through it.
//
// Run must not be called from inside a pool task: a task waiting on its
// own pool can deadlock once every worker is occupied.
type LocalPool struct {
	workers int
	jobs    chan func()
	wg      sync.WaitGroup
}

var _ Pool = (*LocalPool)(nil)

// New starts a local pool with the given number of workers; zero or
// negative uses GOMAXPROCS. Close must be called to release the workers.
func New(workers int) *LocalPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &LocalPool{workers: workers, jobs: make(chan func())}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *LocalPool) Workers() int { return p.workers }

// Run executes fn(0) … fn(n-1) on the pool and waits for all of them. It
// returns the error of the lowest-index failing task (wrap errors inside
// fn to attach task context), independent of the completion schedule.
func (p *LocalPool) Run(n int, fn func(i int) error) error {
	return p.RunContext(context.Background(), n, func(_ context.Context, i int) error { return fn(i) })
}

// RunContext is Run with cancellation: once ctx is done, tasks that have
// not yet been handed to a worker are never started. RunContext waits for
// every started task, then returns the error of the lowest-index failing
// task; if no task failed but ctx cancellation skipped at least one task,
// it returns ctx.Err().
func (p *LocalPool) RunContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	started := 0
submit:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			break submit
		default:
		}
		wg.Add(1)
		select {
		case p.jobs <- func() {
			defer wg.Done()
			errs[i] = safeCall(ctx, i, fn)
		}:
			started++
		case <-ctx.Done():
			wg.Done()
			break submit
		}
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return err
	}
	if started < n {
		return ctx.Err()
	}
	return nil
}

// Close stops the workers after any queued tasks finish.
func (p *LocalPool) Close() {
	close(p.jobs)
	p.wg.Wait()
}
