package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultErr is the test's worker-fault marker (mirrors what rentmin's
// WorkerFaultError provides in production).
type faultErr struct{ worker int }

func (e *faultErr) Error() string     { return fmt.Sprintf("worker %d faulted", e.worker) }
func (e *faultErr) WorkerFault() bool { return true }
func (e *faultErr) Unwrap() error     { return nil }
func newFault(w int) error            { return &faultErr{worker: w} }

// fastBackoff keeps re-dispatch tests quick.
func fastBackoff(int) time.Duration { return time.Millisecond }

func twoWorkerPool(t *testing.T, cfg RemoteConfig) *Pool[int] {
	t.Helper()
	return New([]RemoteSpec[int]{{Name: "w0", Capacity: 2, Worker: 0}, {Name: "w1", Capacity: 2, Worker: 1}}, cfg)
}

func TestRemoteRedispatchAfterWorkerFault(t *testing.T) {
	p := twoWorkerPool(t, RemoteConfig{Backoff: fastBackoff})
	const n = 12
	var solvedByHealthy atomic.Int64
	out := make([]int64, n)
	err := p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
		if w == 0 {
			return newFault(w) // worker 0 is dead: every dispatch to it faults
		}
		solvedByHealthy.Add(1)
		atomic.StoreInt64(&out[i], int64(i+1))
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v (a dead worker must degrade throughput, not correctness)", err)
	}
	for i := range out {
		if atomic.LoadInt64(&out[i]) != int64(i+1) {
			t.Errorf("item %d never solved", i)
		}
	}
	if solvedByHealthy.Load() != n {
		t.Errorf("healthy worker solved %d items, want all %d", solvedByHealthy.Load(), n)
	}
	stats := p.Stats()
	if stats[0].Faults == 0 {
		t.Errorf("dead worker recorded no faults: %+v", stats[0])
	}
	if stats[0].Succeeded != 0 {
		t.Errorf("dead worker recorded successes: %+v", stats[0])
	}
	if stats[1].Succeeded != n {
		t.Errorf("healthy worker succeeded %d, want %d", stats[1].Succeeded, n)
	}
	if stats[0].InFlight != 0 || stats[1].InFlight != 0 {
		t.Errorf("in-flight not drained: %+v", stats)
	}
}

func TestRemoteBackoffShieldsDeadWorker(t *testing.T) {
	// With a long backoff relative to the run, the dead worker takes one
	// strike (maybe a couple while the first items race) and then sits
	// out; the bulk of the work must not keep bouncing off it.
	p := twoWorkerPool(t, RemoteConfig{Backoff: func(int) time.Duration { return time.Minute }})
	const n = 20
	var faults atomic.Int64
	err := p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
		if w == 0 {
			faults.Add(1)
			return newFault(w)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	// Capacity 2 means at most 2 dispatches can be in flight on worker 0
	// before its first strike lands and the backoff shields it.
	if f := faults.Load(); f > 2 {
		t.Errorf("dead worker was dispatched %d times despite backoff, want <= 2", f)
	}
	if !p.Stats()[0].BackingOff {
		t.Errorf("dead worker not backing off after faults")
	}
	if p.Stats()[0].Strikes == 0 {
		t.Errorf("dead worker has no strikes recorded")
	}
}

// TestRemoteGivesUpAfterMaxAttempts pins the attempt budget that ships:
// 3 dispatches per active worker (at least 4), so a task on a fleet of
// two dead workers gives up after exactly 6 dispatches.
func TestRemoteGivesUpAfterMaxAttempts(t *testing.T) {
	p := New(
		[]RemoteSpec[int]{{Name: "w0", Capacity: 1, Worker: 0}, {Name: "w1", Capacity: 1, Worker: 1}},
		RemoteConfig{Backoff: fastBackoff},
	)
	var tries atomic.Int64
	err := p.RunContext(context.Background(), 1, func(_ context.Context, w int, i int) error {
		tries.Add(1)
		return newFault(w) // the whole fleet is down
	})
	if err == nil {
		t.Fatalf("RunContext succeeded with every worker faulting")
	}
	if !IsWorkerFault(err) {
		t.Errorf("final error does not carry the worker fault: %v", err)
	}
	if tries.Load() != 6 {
		t.Errorf("task dispatched %d times, want exactly the budget 3·2 = 6", tries.Load())
	}
}

func TestRemoteSuccessResetsStrikes(t *testing.T) {
	p := twoWorkerPool(t, RemoteConfig{Backoff: fastBackoff})
	var flaky atomic.Bool
	flaky.Store(true)
	run := func(n int) error {
		return p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
			if w == 0 && flaky.Load() {
				return newFault(w)
			}
			return nil
		})
	}
	if err := run(6); err != nil {
		t.Fatalf("flaky run: %v", err)
	}
	if p.Stats()[0].Strikes == 0 {
		t.Fatalf("worker 0 took no strikes while flaky")
	}
	flaky.Store(false)
	// Health state persists across Run calls; once the backoff lapses the
	// recovered worker serves again and its strikes reset.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats()[0].Strikes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("strikes never reset after recovery: %+v", p.Stats()[0])
		}
		if err := run(4); err != nil {
			t.Fatalf("recovered run: %v", err)
		}
	}
}

func TestRemoteConcurrentRunsShareCapacity(t *testing.T) {
	p := twoWorkerPool(t, RemoteConfig{Backoff: fastBackoff})
	var cur, peak atomic.Int64
	task := func(context.Context, int, int) error {
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.RunContext(context.Background(), 10, task); err != nil {
				t.Errorf("RunContext: %v", err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() > int64(p.Workers()) {
		t.Errorf("observed %d concurrent tasks with fleet capacity %d", peak.Load(), p.Workers())
	}
}

func TestRemotePerWorkerInFlightCap(t *testing.T) {
	p := New(
		[]RemoteSpec[int]{{Name: "w0", Capacity: 1, Worker: 0}, {Name: "w1", Capacity: 3, Worker: 1}},
		RemoteConfig{Backoff: fastBackoff},
	)
	var cur [2]atomic.Int64
	var peak [2]atomic.Int64
	err := p.RunContext(context.Background(), 30, func(_ context.Context, w int, i int) error {
		if c := cur[w].Add(1); c > peak[w].Load() {
			peak[w].Store(c)
		}
		time.Sleep(time.Millisecond)
		cur[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if peak[0].Load() > 1 {
		t.Errorf("worker 0 held %d tasks in flight, cap is 1", peak[0].Load())
	}
	if peak[1].Load() > 3 {
		t.Errorf("worker 1 held %d tasks in flight, cap is 3", peak[1].Load())
	}
	if peak[1].Load() == 0 {
		t.Errorf("worker 1 never used")
	}
}

// TestRemoteEmptyFleetParksUntilJoin pins the elastic contract: an empty
// fleet is a valid starting state, a Run over it parks without burning
// attempts, and the first AddWorker wakes the scheduler and drains the
// queue.
func TestRemoteEmptyFleetParksUntilJoin(t *testing.T) {
	p := New[int](nil, RemoteConfig{Backoff: fastBackoff})
	if got := p.Workers(); got != 0 {
		t.Fatalf("empty fleet Workers() = %d, want 0", got)
	}
	const n = 6
	var solved atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
			if w != 7 {
				return fmt.Errorf("handed worker %d, want the joining 7", w)
			}
			solved.Add(1)
			return nil
		})
	}()
	select {
	case err := <-done:
		t.Fatalf("Run over an empty fleet returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.AddWorker(RemoteSpec[int]{Name: "late", Capacity: 2, Worker: 7})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunContext after join: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("join did not wake the parked scheduler")
	}
	if solved.Load() != n {
		t.Errorf("solved %d of %d items after join", solved.Load(), n)
	}
}

// TestRemoteEmptyFleetRunHonorsCancel: parking on an empty fleet must
// still abort on cancellation, reporting context.Canceled with every
// task skipped.
func TestRemoteEmptyFleetRunHonorsCancel(t *testing.T) {
	p := New[int](nil, RemoteConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.RunContext(ctx, 3, func(context.Context, int, int) error {
			return errors.New("must never run")
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("cancellation did not wake the parked scheduler")
	}
}

// TestRemoteJoinMidRunReceivesWork: a worker added while a Run is
// saturated picks up queued items (run under -race in CI, this is the
// membership-resize safety test).
func TestRemoteJoinMidRunReceivesWork(t *testing.T) {
	p := New([]RemoteSpec[int]{{Name: "w0", Capacity: 1, Worker: 0}}, RemoteConfig{Backoff: fastBackoff})
	const n = 16
	var byWorker [2]atomic.Int64
	joined := make(chan struct{})
	var once sync.Once
	err := p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
		once.Do(func() {
			// First dispatch is in flight on w0 with n-1 items queued:
			// grow the fleet under the live scheduler.
			p.AddWorker(RemoteSpec[int]{Name: "w1", Capacity: 3, Worker: 1})
			close(joined)
		})
		<-joined
		time.Sleep(time.Millisecond) // keep seats occupied so the queue spreads
		byWorker[w].Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if total := byWorker[0].Load() + byWorker[1].Load(); total != n {
		t.Fatalf("fleet ran %d of %d items", total, n)
	}
	if byWorker[1].Load() == 0 {
		t.Errorf("worker joined mid-run never received work: %v %v", byWorker[0].Load(), byWorker[1].Load())
	}
	if got := p.Workers(); got != 4 {
		t.Errorf("Workers() = %d after join, want 4", got)
	}
}

// TestRemoteRemoveMidRunRedirectsQueue: removing a worker mid-Run stops
// new dispatches to it; queued items flow to the remaining member even
// when their exclusion sets pointed the other way.
func TestRemoteRemoveMidRunRedirectsQueue(t *testing.T) {
	p := New(
		[]RemoteSpec[int]{{Name: "w0", Capacity: 1, Worker: 0}, {Name: "w1", Capacity: 1, Worker: 1}},
		RemoteConfig{Backoff: fastBackoff},
	)
	const n = 12
	var removed atomic.Bool
	var afterRemoval atomic.Int64
	err := p.RunContext(context.Background(), n, func(_ context.Context, w int, i int) error {
		if removed.Load() && w == 0 {
			afterRemoval.Add(1)
		}
		if i == 0 {
			p.RemoveWorker("w0")
			removed.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got := afterRemoval.Load(); got != 0 {
		t.Errorf("%d dispatches landed on w0 after removal", got)
	}
	if got := p.Workers(); got != 1 {
		t.Errorf("Workers() = %d after removal, want 1", got)
	}
	if specs := p.Specs(); len(specs) != 1 || specs[0].Name != "w1" {
		t.Errorf("Specs() after removal = %+v, want just w1", specs)
	}
}

// TestRemoteStrikeEviction: crossing the EvictStrikes threshold removes
// the worker from the fleet and counts an eviction; later probes leave
// it removed, and only re-registration revives it with clean health at
// the same index. A probe of a live worker resizes its seats.
func TestRemoteStrikeEviction(t *testing.T) {
	p := New(
		[]RemoteSpec[int]{{Name: "w0", Capacity: 2, Worker: 0}},
		RemoteConfig{Backoff: fastBackoff, EvictStrikes: 3},
	)
	down := errors.New("probe failed")
	for i := 0; i < 2; i++ {
		if evicted := p.Probed("w0", 0, down); evicted {
			t.Fatalf("strike %d evicted below the threshold", i+1)
		}
	}
	if !p.Probed("w0", 0, down) {
		t.Fatalf("threshold strike did not evict")
	}
	if got := p.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d, want 1", got)
	}
	if got := p.Workers(); got != 0 {
		t.Errorf("Workers() = %d after eviction, want 0", got)
	}
	stats := p.Stats()
	if len(stats) != 1 || !stats[0].Removed {
		t.Fatalf("evicted worker not flagged Removed: %+v", stats)
	}
	// Probes of an evicted worker are a no-op, not a second eviction
	// and not a revival.
	if p.Probed("w0", 0, down) || p.Probed("w0", 9, nil) {
		t.Errorf("probe of an evicted worker evicted again")
	}
	if s := p.Stats()[0]; !s.Removed || s.Capacity != 2 {
		t.Errorf("evicted worker after probes: %+v, want removed at capacity 2", s)
	}
	if got := p.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d after no-op strike, want 1", got)
	}
	// Rejoin: same index, clean slate.
	if w := p.AddWorker(RemoteSpec[int]{Name: "w0", Capacity: 4, Worker: 0}); w != 0 {
		t.Errorf("rejoin allocated index %d, want the reserved 0", w)
	}
	s := p.Stats()[0]
	if s.Removed || s.Strikes != 0 || s.BackingOff || s.Capacity != 4 {
		t.Errorf("rejoined worker state: %+v, want live with clean health and capacity 4", s)
	}
	if p.Probed("w0", 5, nil) || p.Workers() != 5 {
		t.Errorf("Workers() = %d after a probe reported 5, want 5", p.Workers())
	}
}

// TestRemoteSpecsReturnsCopy pins the bugfix: mutating the returned
// slice must not corrupt the pool's membership table.
func TestRemoteSpecsReturnsCopy(t *testing.T) {
	p := twoWorkerPool(t, RemoteConfig{})
	specs := p.Specs()
	specs[0].Name = "corrupted"
	specs[0].Capacity = 999
	if got := p.Specs()[0]; got.Name != "w0" || got.Capacity != 2 {
		t.Fatalf("Specs() exposed internal state: mutation leaked, got %+v", got)
	}
}

// TestRemoteReregisterRefreshesCapacity: AddWorker on a live member is
// an idempotent capacity refresh, not a duplicate.
func TestRemoteReregisterRefreshesCapacity(t *testing.T) {
	p := twoWorkerPool(t, RemoteConfig{})
	if w := p.AddWorker(RemoteSpec[int]{Name: "w0", Capacity: 5, Worker: 0}); w != 0 {
		t.Fatalf("re-register allocated index %d, want 0", w)
	}
	if got := p.Workers(); got != 7 {
		t.Errorf("Workers() = %d after capacity refresh, want 7 (5+2)", got)
	}
	if got := len(p.Specs()); got != 2 {
		t.Errorf("re-registration duplicated the worker: %d specs", got)
	}
}

func TestRemoteCancelAbortsQueuedRedispatch(t *testing.T) {
	// A task whose worker faulted sits on the retry queue; cancellation
	// must fail it with its last fault instead of waiting out backoffs.
	p := New([]RemoteSpec[int]{{Name: "w0", Capacity: 1, Worker: 0}}, RemoteConfig{
		Backoff: func(int) time.Duration { return time.Hour },
	})
	ctx, cancel := context.WithCancel(context.Background())
	var tries atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- p.RunContext(ctx, 1, func(context.Context, int, int) error {
			tries.Add(1)
			cancel() // cancel while the task is being (re-)queued
			return newFault(0)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("RunContext succeeded despite permanent fault")
		}
		if !IsWorkerFault(err) && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want the last fault or cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("RunContext hung: cancellation did not abort the backoff wait")
	}
	if tries.Load() != 1 {
		t.Errorf("task dispatched %d times after cancellation, want 1", tries.Load())
	}
}

// TestRemoteMemberRecordCarriesRTTAndTransport pins what the member
// record owns besides seats and health: every successful dispatch adds
// one RTT sample to its worker's window (faults add none), and
// re-registering a live or removed name keeps the installed transport.
func TestRemoteMemberRecordCarriesRTTAndTransport(t *testing.T) {
	p := New([]RemoteSpec[string]{
		{Name: "w0", Capacity: 1, Worker: "dead"},
		{Name: "w1", Capacity: 1, Worker: "live"},
	}, RemoteConfig{Backoff: fastBackoff})
	const n = 8
	err := p.RunContext(context.Background(), n, func(_ context.Context, w string, i int) error {
		if w == "dead" {
			return newFault(0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	stats := p.Stats()
	if s := stats[1]; s.RTTSamples != n || s.Succeeded != n || s.RTTp99Ms < s.RTTp50Ms {
		t.Errorf("live worker RTT window: %+v, want %d samples with p99 >= p50", s, n)
	}
	if s := stats[0]; s.Faults == 0 || s.RTTSamples != 0 || s.Healthy {
		t.Errorf("dead worker record: %+v, want faults, no RTT samples, unhealthy", s)
	}

	p.RemoveWorker("w1")
	p.AddWorker(RemoteSpec[string]{Name: "w1", Capacity: 1, Worker: "replacement"})
	p.AddWorker(RemoteSpec[string]{Name: "w1", Capacity: 1, Worker: "replacement"})
	for _, s := range p.Specs() {
		if s.Name == "w1" && s.Worker != "live" {
			t.Errorf("re-registration replaced the transport: %q", s.Worker)
		}
	}
	if got := p.Stats()[1].RTTSamples; got != n {
		t.Errorf("rejoin reset the RTT window: %d samples, want %d", got, n)
	}
}
