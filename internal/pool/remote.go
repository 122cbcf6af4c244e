package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rentmin/internal/obs"
)

// RemoteSpec describes one remote executor behind a RemotePool: a name
// for errors and metrics (typically the worker's endpoint URL), its
// capacity — the maximum number of tasks the pool keeps in flight on it
// at once, discovered from the worker itself (GET /v1/capacity for a
// rentmind daemon) — and the transport tasks reach it through, handed
// to every task bound to it (AssignedWorker).
type RemoteSpec[W any] struct {
	Name     string
	Capacity int
	Worker   W
}

// RemoteConfig tunes a RemotePool's failure handling.
type RemoteConfig struct {
	// Backoff returns how long a worker sits out after its strike-th
	// consecutive fault (strike counts from 1). Nil uses a deterministic
	// exponential default: 100ms · 2^(strike-1), capped at 5s.
	// rentmin/client.Backoff supplies a jittered schedule from a seeded
	// RNG, so tests stay deterministic.
	Backoff func(strike int) time.Duration
	// EvictStrikes, when positive, is the consecutive-strike threshold
	// (dispatch faults plus health-probe failures) at which a worker is
	// evicted from the fleet (removed exactly as RemoveWorker would,
	// counted in Evictions). Zero disables eviction: a faulting worker
	// only backs off, as in a fixed fleet. An evicted worker may rejoin
	// via AddWorker — registration revives it with a clean slate.
	EvictStrikes int
}

// WorkerStatus is a point-in-time snapshot of one worker's health
// inside a RemotePool, exported as the coordinator's worker gauges.
type WorkerStatus struct {
	// Name identifies the worker; Capacity is its discovered in-flight cap.
	Name     string
	Capacity int
	// InFlight counts tasks currently dispatched to the worker.
	InFlight int
	// Dispatched counts tasks ever handed to the worker (re-dispatches
	// of the same item count once per attempt).
	Dispatched int64
	// Succeeded counts dispatches that returned without a worker fault.
	Succeeded int64
	// Faults counts dispatches that ended in a worker fault.
	Faults int64
	// Strikes is the current consecutive-fault count (reset by any
	// success); BackingOff reports whether the worker is sitting out.
	Strikes    int
	BackingOff bool
	// Healthy is true while the worker is a live member that is not
	// backing off after faults.
	Healthy bool
	// Removed reports the worker has left the fleet (RemoveWorker or
	// strike eviction); it receives no new dispatches but its counters
	// are kept so a rejoin resumes them.
	Removed bool
	// RTTSamples is the number of successful dispatch round trips
	// measured; RTTp50Ms and RTTp99Ms are quantiles over a sliding window
	// of the most recent ones (coordinator-observed: queue and solve time
	// on the worker plus the wire). Zero samples means no dispatch has
	// succeeded yet.
	RTTSamples int64
	RTTp50Ms   float64
	RTTp99Ms   float64
}

// rttWindow is the number of recent round trips each member's RTT
// quantiles are computed over.
const rttWindow = 256

// member is one fleet member: its spec (transport included), seats,
// health and cumulative dispatch counters. Members are never deleted —
// removal tombstones the record — so a member's index is stable for the
// pool's lifetime and a rejoin resumes its counters and RTT history.
type member[W any] struct {
	RemoteSpec[W]
	removed    bool
	free       int       // free seats
	strikes    int       // consecutive faults
	until      time.Time // backoff deadline
	inFlight   int
	dispatched int64
	succeeded  int64
	faults     int64
	rtt        *obs.Window // successful dispatch round trips, ms
}

// workerFaulter is the contract a task error uses to indict the worker
// it ran on rather than the task itself: the task is re-dispatched to
// another worker and the faulted worker backs off. rentmin wraps remote
// solve failures in such an error (rentmin.WorkerFaultError); the pool
// only cares about the method so it stays transport-agnostic.
type workerFaulter interface{ WorkerFault() bool }

// IsWorkerFault reports whether err marks a worker fault (an error in
// its chain implements WorkerFault() bool and returns true).
func IsWorkerFault(err error) bool {
	var f workerFaulter
	return errors.As(err, &f) && f.WorkerFault()
}

// workerKey carries the assigned worker's transport in the task context.
type workerKey struct{}

// AssignedWorker returns the transport (RemoteSpec.Worker) of the
// worker a RemotePool[W] bound the current task to, and whether the task
// is running under such a pool at all. Task functions use it to route
// their work to the right remote executor.
func AssignedWorker[W any](ctx context.Context) (W, bool) {
	w, ok := ctx.Value(workerKey{}).(W)
	return w, ok
}

// RemotePool is a Pool whose concurrency slots are the capacity of a
// fleet of remote executors reached through transports of type W. It
// does not ship closures anywhere: it decides which worker a task index
// is bound to and when, and the task function routes its work to that
// worker's transport (AssignedWorker). What the pool owns is everything
// around that decision:
//
//   - per-worker in-flight caps (a worker never holds more tasks than
//     its discovered capacity);
//   - deterministic result ordering — outcomes land by task index no
//     matter which worker answered, exactly like LocalPool;
//   - failure handling: a task error marking a worker fault (see
//     IsWorkerFault) puts the task back on the queue for a healthy
//     worker and gives the faulted worker an exponential backoff, so a
//     dead worker degrades throughput, not correctness;
//   - elastic membership: AddWorker and RemoveWorker change the fleet
//     mid-flight — schedulers blocked on a saturated (or empty) fleet
//     wake and dispatch onto a joining worker, and a removed worker's
//     queued items flow to the rest of the fleet. With
//     RemoteConfig.EvictStrikes set, removal also happens automatically
//     when a worker's consecutive strikes cross the threshold;
//   - cancellation: queued tasks are never dispatched after ctx is
//     done, and in-flight tasks see the cancellation through their
//     context (a remote HTTP solve aborts mid-flight);
//   - observation: every member record carries its dispatch counters
//     and a sliding window of successful round-trip times (Stats).
//
// Worker health (strikes, backoff deadlines) persists across Run calls,
// so a long-lived coordinator keeps avoiding a flapping worker between
// batches. Concurrent Run calls share the fleet's capacity. A pool may
// be built over an empty fleet: Run calls then park until a worker
// joins or their context is cancelled.
type RemotePool[W any] struct {
	backoff      func(strike int) time.Duration
	evictStrikes int

	mu        sync.Mutex
	members   []member[W] // the fleet table, indexed by stable member index
	evictions int64

	// waiters are the schedulers currently starved of seats: one
	// buffered-1 channel per waiting Run call, signalled (never blocked
	// on) whenever a seat frees or the membership changes. Per-waiter
	// channels make the wakeup lossless — the single shared token this
	// replaced could drop signals under concurrent Runs and needed a
	// 50ms poll as a lost-wakeup net.
	waiters []chan struct{}
}

var _ Pool = (*RemotePool[any])(nil)

// NewRemote builds a RemotePool over the given workers. Capacities below
// one are clamped to one. The fleet may be empty: an elastic pool starts
// with no members and grows by AddWorker.
func NewRemote[W any](specs []RemoteSpec[W], cfg RemoteConfig) *RemotePool[W] {
	p := &RemotePool[W]{backoff: cfg.Backoff, evictStrikes: cfg.EvictStrikes}
	if p.backoff == nil {
		p.backoff = defaultBackoff
	}
	for _, s := range specs {
		p.AddWorker(s)
	}
	return p
}

// defaultBackoff is the deterministic exponential schedule used when the
// config supplies none: 100ms, 200ms, 400ms, ... capped at 5s.
func defaultBackoff(strike int) time.Duration {
	d := 100 * time.Millisecond
	for ; strike > 1 && d < 5*time.Second; strike-- {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// AddWorker adds a worker to the fleet (or revives/refreshes it) and
// returns its stable index. Capacities below one are clamped to one.
// Joining under a live Run is the point: schedulers starved of seats
// wake immediately and dispatch queued items onto the new member.
//
//   - A brand-new name appends a member with spec's transport.
//   - A removed (evicted) name rejoins in place: same index, counters
//     and RTT history continued, strikes and backoff cleared.
//   - A live name is refreshed idempotently: its capacity is updated to
//     the given value (seats grow or shrink accordingly).
//
// A name that is already a member keeps its installed transport and
// spec.Worker is dropped: registration is a periodic, idempotent
// announce, and the installed transport may carry per-worker state
// worth preserving (rentmin/client's upload dedup — replacing it on
// every re-announce would re-upload every problem document).
func (p *RemotePool[W]) AddWorker(spec RemoteSpec[W]) int {
	if spec.Capacity < 1 {
		spec.Capacity = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.broadcastLocked()
	for w := range p.members {
		m := &p.members[w]
		if m.Name != spec.Name {
			continue
		}
		if m.removed {
			// Rejoin after removal/eviction: clean health, fresh seats
			// (minus any dispatches still draining from before removal).
			m.removed = false
			m.strikes = 0
			m.until = time.Time{}
			m.free = spec.Capacity - m.inFlight
		} else {
			m.free += spec.Capacity - m.Capacity
		}
		m.Capacity = spec.Capacity
		return w
	}
	p.members = append(p.members, member[W]{RemoteSpec: spec, free: spec.Capacity, rtt: obs.NewWindow(rttWindow)})
	return len(p.members) - 1
}

// RemoveWorker takes the named worker out of the fleet; it reports
// whether a live member was removed. The worker gets no new dispatches;
// its in-flight tasks finish (or fault and re-dispatch) normally, and
// queued items excluded from every remaining member have their
// exclusion sets reset so they keep flowing. The index stays reserved —
// AddWorker with the same name rejoins in place.
func (p *RemotePool[W]) RemoveWorker(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.liveLocked(name); w >= 0 {
		p.members[w].removed = true
		p.broadcastLocked()
		return true
	}
	return false
}

// Strike records a health-probe failure against the named worker: a
// strike plus backoff exactly as a dispatch fault would add, without
// touching the dispatch counters (a probe is not a dispatch). It
// reports whether the strike crossed the eviction threshold and removed
// the worker. Unknown or already-removed names are a no-op.
func (p *RemotePool[W]) Strike(name string) (evicted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.liveLocked(name); w >= 0 {
		return p.strikeLocked(w)
	}
	return false
}

// liveLocked returns the index of the named live member, or -1. Caller
// holds mu.
func (p *RemotePool[W]) liveLocked(name string) int {
	for w := range p.members {
		if p.members[w].Name == name && !p.members[w].removed {
			return w
		}
	}
	return -1
}

// strikeLocked adds a strike and backoff to worker w, evicting it when
// the configured threshold is crossed. Caller holds mu.
func (p *RemotePool[W]) strikeLocked(w int) (evicted bool) {
	m := &p.members[w]
	m.strikes++
	m.until = time.Now().Add(p.backoff(m.strikes))
	if p.evictStrikes > 0 && m.strikes >= p.evictStrikes {
		m.removed = true
		p.evictions++
		p.broadcastLocked()
		return true
	}
	return false
}

// Evictions counts workers removed by the strike threshold since the
// pool was created (manual RemoveWorker calls are not counted).
func (p *RemotePool[W]) Evictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// Workers returns the fleet's current total capacity (active members
// only). It changes as workers join and leave.
func (p *RemotePool[W]) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for w := range p.members {
		if !p.members[w].removed {
			total += p.members[w].Capacity
		}
	}
	return total
}

// Specs returns a snapshot of the fleet's active members, transports
// included. The slice is a copy: mutating it cannot corrupt the pool's
// membership table.
func (p *RemotePool[W]) Specs() []RemoteSpec[W] {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RemoteSpec[W], 0, len(p.members))
	for w := range p.members {
		if !p.members[w].removed {
			out = append(out, p.members[w].RemoteSpec)
		}
	}
	return out
}

// Stats snapshots per-worker health for metrics export. Removed members
// are included (flagged Removed) so dashboards can count evictions and
// a coordinator can report a vanished worker's final counters.
func (p *RemotePool[W]) Stats() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, len(p.members))
	for i := range p.members {
		m := &p.members[i]
		backingOff := m.until.After(now)
		out[i] = WorkerStatus{
			Name:       m.Name,
			Capacity:   m.Capacity,
			InFlight:   m.inFlight,
			Dispatched: m.dispatched,
			Succeeded:  m.succeeded,
			Faults:     m.faults,
			Strikes:    m.strikes,
			BackingOff: backingOff,
			Healthy:    !backingOff && !m.removed,
			Removed:    m.removed,
		}
		if n := m.rtt.Count(); n > 0 {
			qs := m.rtt.Quantiles(0.5, 0.99)
			out[i].RTTSamples, out[i].RTTp50Ms, out[i].RTTp99Ms = n, qs[0], qs[1]
		}
	}
	return out
}

// Close releases the pool. RemotePool owns no goroutines between Run
// calls, so Close only exists to satisfy the Pool contract; the remote
// workers themselves are owned by whoever created their transports.
func (p *RemotePool[W]) Close() {}

// Run executes fn(0) … fn(n-1) across the fleet and waits; see Pool.
func (p *RemotePool[W]) Run(n int, fn func(i int) error) error {
	return p.RunContext(context.Background(), n, func(_ context.Context, i int) error { return fn(i) })
}

// subscribe registers the calling scheduler for seat/membership wakeups
// and returns its private buffered-1 channel. Register before scanning
// for seats: a release landing between the scan and the sleep is then
// buffered, not lost.
func (p *RemotePool[W]) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	p.mu.Lock()
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
	return ch
}

// unsubscribe removes the scheduler's wakeup channel.
func (p *RemotePool[W]) unsubscribe(ch chan struct{}) {
	p.mu.Lock()
	for i := range p.waiters {
		if p.waiters[i] == ch {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// broadcastLocked signals every waiting scheduler (non-blocking: each
// waiter channel holds one pending token). Caller holds mu.
func (p *RemotePool[W]) broadcastLocked() {
	for _, ch := range p.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// pickAssignment scans the queue in FIFO order for the first item with a
// dispatchable worker: active membership, a free seat, no running
// backoff, and not excluded by the item's own fault history (an item
// never returns to a worker it already faulted on while alternatives
// exist — backoff-expiry probes of a dead worker must not burn the same
// item's attempt budget over and over). Among eligible workers it
// reserves a seat on the one with the most free seats (ties to the
// lowest index), which spreads a batch across the fleet instead of
// filling workers one by one. An item whose exclusion set has come to
// cover every active member — membership shrank under it — has the set
// reset so it keeps flowing. It returns the queue position, the worker
// and its transport, or (-1, -1) and the wait until the nearest backoff
// expiry among workers with free seats (zero when no backoff is pending
// and the caller must wait for a seat or a membership change instead).
func (p *RemotePool[W]) pickAssignment(now time.Time, queue []item) (int, int, W, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for qi := 0; qi < len(queue); qi++ {
		best := -1
		active, eligible := 0, 0
		for w := range p.members {
			m := &p.members[w]
			if m.removed {
				continue
			}
			active++
			if queue[qi].excludes(w) {
				continue
			}
			eligible++
			if m.free <= 0 || m.until.After(now) {
				continue
			}
			if best < 0 || m.free > p.members[best].free {
				best = w
			}
		}
		if best >= 0 {
			m := &p.members[best]
			m.free--
			m.inFlight++
			m.dispatched++
			return qi, best, m.Worker, 0
		}
		if active > 0 && eligible == 0 {
			// Every worker this item hasn't faulted on has since left the
			// fleet. Clear the history so the item may probe the members
			// that remain (still bounded by its attempt budget) and rescan.
			queue[qi].excluded = nil
			qi--
		}
	}
	// Nothing dispatchable: report the nearest backoff expiry among
	// active workers that do have a free seat, so the scheduler can sleep
	// until the fleet heals rather than only until a seat frees.
	var wait time.Duration
	for w := range p.members {
		m := &p.members[w]
		if m.removed || m.free <= 0 {
			continue
		}
		if d := m.until.Sub(now); d > 0 && (wait == 0 || d < wait) {
			wait = d
		}
	}
	var none W
	return -1, -1, none, wait
}

// finish folds one dispatch outcome into worker w's record and frees
// its seat, waking every waiting scheduler. A worker fault adds a strike
// and backoff (evicting at the configured threshold). Any other answer —
// a task's own error included — clears the worker's strikes, and a
// success adds the round trip to its RTT window. A failure once ctx is
// done says nothing about the worker's health and leaves its record
// alone.
func (p *RemotePool[W]) finish(ctx context.Context, w int, err error, rtt time.Duration) {
	cancelled := err != nil && ctx.Err() != nil
	fault := err != nil && !cancelled && IsWorkerFault(err)
	p.mu.Lock()
	defer p.mu.Unlock()
	m := &p.members[w]
	switch {
	case cancelled:
	case fault:
		m.faults++
		p.strikeLocked(w)
	default:
		m.succeeded++
		m.strikes = 0
		if err == nil {
			m.rtt.Add(float64(rtt) / float64(time.Millisecond))
		}
	}
	m.free++
	m.inFlight--
	p.broadcastLocked()
}

// attemptBudget is the per-item dispatch budget: 3·(active workers), at
// least 4, re-evaluated per fault so the budget tracks an elastic fleet
// (and a fleet that is entirely down cannot spin forever).
func (p *RemotePool[W]) attemptBudget() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	active := 0
	for w := range p.members {
		if !p.members[w].removed {
			active++
		}
	}
	return max(3*active, 4)
}

// item is one task making its way through the dispatcher, carrying its
// re-dispatch history.
type item struct {
	i        int
	attempts int
	lastErr  error
	// excluded marks workers this item already faulted on; nil until the
	// first fault. It is sized to the fleet at fault time and treats
	// later-joined indexes as not excluded. When every active worker is
	// excluded the set resets — at fault time or, if membership shrank
	// under a queued item, during assignment — so the item may probe the
	// fleet again (bounded by the attempt budget).
	excluded []bool
}

func (it *item) excludes(w int) bool {
	return w < len(it.excluded) && it.excluded[w]
}

// excludeWorker marks the worker in the item's fault history, resetting
// the set when it has come to cover every active member.
func (p *RemotePool[W]) excludeWorker(it *item, w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(it.excluded) < len(p.members) {
		grown := make([]bool, len(p.members))
		copy(grown, it.excluded)
		it.excluded = grown
	}
	it.excluded[w] = true
	for x := range p.members {
		if !p.members[x].removed && !it.excluded[x] {
			return
		}
	}
	it.excluded = nil
}

// completion is what a finished dispatch reports back to the scheduler.
type completion struct {
	it  item
	w   int
	err error
}

// RunContext dispatches fn(0) … fn(n-1) across the fleet; see Pool and
// the RemotePool type comment for the contract. Each invocation of fn
// receives a context annotated with its assigned worker's transport
// (AssignedWorker). A task whose error marks a worker fault is
// re-dispatched — up to 3·(active workers) dispatches, at least 4, after
// which its last fault stands as its error. Tasks cancelled after at least one faulted attempt report that
// last fault rather than ctx.Err().
func (p *RemotePool[W]) RunContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	queue := make([]item, n)
	for i := range queue {
		queue[i] = item{i: i}
	}
	skipped := 0
	inflight := 0
	done := make(chan completion)
	cancelled := false

	for {
		if !cancelled && ctx.Err() != nil {
			// Stop dispatching: queued first-attempt tasks are skipped,
			// queued re-dispatches keep their last fault as their error.
			cancelled = true
			for _, it := range queue {
				if it.attempts == 0 {
					skipped++
				} else {
					errs[it.i] = it.lastErr
				}
			}
			queue = nil
		}
		if len(queue) == 0 && inflight == 0 {
			break
		}

		var healWait time.Duration
		var wake chan struct{}
		if len(queue) > 0 {
			// Subscribe before scanning: a seat released (or a worker
			// joining) between the scan and the sleep lands in the
			// buffered waiter channel instead of being lost.
			wake = p.subscribe()
			qi, w, worker, wait := p.pickAssignment(time.Now(), queue)
			if w >= 0 {
				p.unsubscribe(wake)
				it := queue[qi]
				queue = append(queue[:qi], queue[qi+1:]...)
				it.attempts++
				inflight++
				go func(it item, w int, worker W) {
					start := time.Now()
					err := safeCall(context.WithValue(ctx, workerKey{}, worker), it.i, fn)
					p.finish(ctx, w, err, time.Since(start))
					done <- completion{it: it, w: w, err: err}
				}(it, w, worker)
				continue
			}
			healWait = wait
		}

		// Nothing dispatchable: wait for one of our dispatches to finish,
		// any seat in the fleet to free or the membership to change (the
		// wakeup may come from a concurrent Run's release or from
		// AddWorker), the nearest backoff to expire, or cancellation.
		var timerC <-chan time.Time
		var timer *time.Timer
		if healWait > 0 {
			timer = time.NewTimer(healWait)
			timerC = timer.C
		}
		var ctxDone <-chan struct{}
		if !cancelled {
			ctxDone = ctx.Done()
		}
		select {
		case c := <-done:
			inflight--
			p.settle(ctx, c, &queue, errs)
		case <-wake:
		case <-timerC:
		case <-ctxDone:
		}
		if timer != nil {
			timer.Stop()
		}
		if wake != nil {
			p.unsubscribe(wake)
		}
	}

	if err := firstError(errs); err != nil {
		return err
	}
	if skipped > 0 {
		return ctx.Err()
	}
	return nil
}

// settle folds one completed dispatch into the run's state: success
// lands the result, a worker fault re-queues the task for a worker it
// has not faulted on yet (until its attempt budget runs out), any other
// error is the task's own.
func (p *RemotePool[W]) settle(ctx context.Context, c completion, queue *[]item, errs []error) {
	switch {
	case c.err == nil:
		errs[c.it.i] = nil
	case IsWorkerFault(c.err) && ctx.Err() == nil && c.it.attempts < p.attemptBudget():
		c.it.lastErr = c.err
		p.excludeWorker(&c.it, c.w)
		*queue = append(*queue, c.it)
	case IsWorkerFault(c.err):
		errs[c.it.i] = fmt.Errorf("pool: task %d failed on %d dispatches, giving up: %w", c.it.i, c.it.attempts, c.err)
	default:
		errs[c.it.i] = c.err
	}
}
