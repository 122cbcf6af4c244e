package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunContextCompletesWithoutCancellation(t *testing.T) {
	p := inProcess(2)
	var ran atomic.Int64
	if err := p.RunContext(context.Background(), 20, func(_ context.Context, _ struct{}, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if ran.Load() != 20 {
		t.Errorf("ran %d tasks, want 20", ran.Load())
	}
}

func TestRunContextPreCancelledSkipsEverything(t *testing.T) {
	p := inProcess(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := p.RunContext(ctx, 10, func(_ context.Context, _ struct{}, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran despite pre-cancelled context", ran.Load())
	}
}

func TestRunContextStopsSubmittingMidway(t *testing.T) {
	p := inProcess(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	// The first task cancels the context; with one seat every later
	// task is still undispatched at that point and must never start.
	err := p.RunContext(ctx, 50, func(_ context.Context, _ struct{}, i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 50 || n < 1 {
		t.Errorf("ran %d of 50 tasks, want an early stop", n)
	}
}

func TestRunContextTaskErrorWinsOverCancellation(t *testing.T) {
	p := inProcess(2)
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := p.RunContext(ctx, 8, func(_ context.Context, _ struct{}, i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lowest-index task error", err)
	}
}
