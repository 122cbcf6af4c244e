// Package pool is the task scheduler shared by every parallel layer of
// the system: batch solving (rentmin.SolverPool), the coordinator's
// fleet dispatch and experiment sweeps (internal/experiments). It is a
// leaf package so all of them can depend on it.
//
// One type, Pool, dispatches index-addressed tasks across the capacity
// of a fleet of executors, with per-member in-flight caps, per-member
// backoff and re-dispatch on worker faults, and hands each task the
// transport of the member it runs on. A remote fleet's members are
// rentmind worker daemons; an in-process pool is a fleet of one member
// whose capacity is its concurrency, and its tasks solve on the
// goroutine the dispatcher gives them. Either way results land by task
// index, the lowest-index task error wins, and cancellation skips tasks
// that have not started.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
)

// PanicError is a task panic converted into an error so one bad task
// cannot take down the dispatcher. RunContext returns it.
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

// safeCall invokes fn(ctx, w, i), converting a panic into a *PanicError.
func safeCall[W any](ctx context.Context, w W, i int, fn func(ctx context.Context, w W, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, w, i)
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
