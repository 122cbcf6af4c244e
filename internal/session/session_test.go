package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/solve"
	"rentmin/internal/stream"
)

func ctxb() context.Context { return context.Background() }

// coldCost solves the session's effective problem from scratch and
// returns (feasible, cost): the oracle every re-solve must match.
func coldCost(t *testing.T, s *Session) (bool, int64) {
	t.Helper()
	eff, _ := s.EffectiveProblem()
	if eff.Target <= 0 {
		return true, 0
	}
	if eff.NumGraphs() == 0 {
		return false, 0
	}
	m := core.NewCostModel(eff)
	res, err := solve.ILP(m, eff.Target, nil)
	if err != nil {
		t.Fatalf("cold oracle: %v", err)
	}
	if !res.Proven {
		t.Fatalf("cold oracle not proven: %+v", res)
	}
	return true, res.Alloc.Cost
}

func mustApply(t *testing.T, s *Session, ev Event) *Resolve {
	t.Helper()
	res, err := s.Apply(ctxb(), ev)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", ev, err)
	}
	return res
}

// checkOracle asserts the latest resolve agrees with a fresh cold solve
// of the same mutated problem and that the allocation is feasible.
func checkOracle(t *testing.T, s *Session, res *Resolve) {
	t.Helper()
	feasible, want := coldCost(t, s)
	if !feasible {
		if res.Status != StatusInfeasible {
			t.Fatalf("event %d (%s): status %s, oracle says infeasible", res.Seq, res.Kind, res.Status)
		}
		return
	}
	if res.Status != StatusOptimal {
		t.Fatalf("event %d (%s): status %s, want optimal", res.Seq, res.Kind, res.Status)
	}
	if res.Alloc.Cost != want {
		t.Fatalf("event %d (%s): cost %d, cold solve of the same problem costs %d", res.Seq, res.Kind, res.Alloc.Cost, want)
	}
	full := s.Problem()
	m := core.NewCostModel(full)
	eff, _ := s.EffectiveProblem()
	if eff.Target > 0 {
		if err := m.CheckFeasible(res.Alloc, eff.Target); err != nil {
			t.Fatalf("event %d (%s): committed allocation infeasible: %v", res.Seq, res.Kind, err)
		}
	}
}

// The paper's worked example streamed through the full event vocabulary:
// every re-solve must match a cold solve of the mutated problem.
func TestSessionColdEquivalence(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, res, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if res.Status != StatusOptimal || res.Alloc.Cost != 124 {
		t.Fatalf("initial solve: %+v, want optimal cost 124", res)
	}
	if res.Warm {
		t.Error("initial solve claims warm")
	}
	checkOracle(t, s, res)

	script := []Event{
		{Kind: TargetChange, Target: 80},
		{Kind: PriceChange, Type: 3, Price: 60},
		{Kind: RecipeArrival, Graph: &core.Graph{Name: "phi4", Tasks: []core.Task{{ID: 0, Type: 2}}}},
		{Kind: TargetChange, Target: 90},
		{Kind: Outage, Type: 1},
		{Kind: TargetChange, Target: 85},
		{Kind: Restore, Type: 1},
		{Kind: PriceChange, Type: 3, Price: 33},
		{Kind: RecipeDeparture, GraphIndex: 3},
		{Kind: TargetChange, Target: 70},
		{Kind: Outage, Type: 0},
		{Kind: Restore, Type: 0},
	}
	warm := 0
	for i, ev := range script {
		res := mustApply(t, s, ev)
		if res.Seq != i+1 {
			t.Fatalf("event %d: seq %d", i+1, res.Seq)
		}
		checkOracle(t, s, res)
		if res.Warm {
			warm++
		}
	}
	st := s.State()
	if st.Events != len(script) {
		t.Errorf("state events = %d, want %d", st.Events, len(script))
	}
	if st.Cost != 124 {
		t.Errorf("final cost %d, want 124 (script returns to the initial problem)", st.Cost)
	}
	if warm <= len(script)/2 {
		t.Errorf("only %d/%d events re-solved warm", warm, len(script))
	}
	if st.WarmResolves != warm || st.ColdResolves != len(script)-warm+1 {
		t.Errorf("counter mismatch: state %d/%d, observed %d warm of %d events + 1 cold create",
			st.WarmResolves, st.ColdResolves, warm, len(script))
	}
}

// An outage must zero out the machines of the offline type and the
// throughput of every graph that needs it; a restore recovers, and an
// all-types outage parks the session in the infeasible state.
func TestSessionOutageSemantics(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	res := mustApply(t, s, Event{Kind: Outage, Type: 0})
	checkOracle(t, s, res)
	if res.Alloc.Machines[0] != 0 {
		t.Errorf("offline type 0 still has %d machines", res.Alloc.Machines[0])
	}
	for j, g := range s.Problem().App.Graphs {
		needs := false
		for _, task := range g.Tasks {
			if task.Type == 0 {
				needs = true
			}
		}
		if needs && res.Alloc.GraphThroughput[j] != 0 {
			t.Errorf("graph %d uses offline type 0 but runs at %d", j, res.Alloc.GraphThroughput[j])
		}
	}

	// Take everything down: no graph can run.
	prevFleet := 0
	for _, n := range res.Alloc.Machines {
		prevFleet += n
	}
	var last *Resolve
	for q := 1; q < 4; q++ {
		last = mustApply(t, s, Event{Kind: Outage, Type: q})
	}
	if last.Status != StatusInfeasible {
		t.Fatalf("all-offline status = %s, want infeasible", last.Status)
	}
	st := s.State()
	if st.Feasible || st.Cost != 0 {
		t.Errorf("infeasible state: feasible=%v cost=%d", st.Feasible, st.Cost)
	}
	if len(st.Offline) != 4 {
		t.Errorf("offline set %v, want all four types", st.Offline)
	}

	// Restores recover the original optimum.
	for q := 0; q < 4; q++ {
		last = mustApply(t, s, Event{Kind: Restore, Type: q})
		checkOracle(t, s, last)
	}
	if last.Status != StatusOptimal || last.Alloc.Cost != 124 {
		t.Fatalf("post-restore resolve %+v, want optimal 124", last)
	}
}

// Invalid events must leave the session untouched and wrap ErrInvalidEvent.
func TestSessionInvalidEvents(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := s.State()

	bad := []Event{
		{Kind: "reticulate"},
		{Kind: RecipeArrival},
		{Kind: RecipeArrival, Graph: &core.Graph{Name: "x", Tasks: []core.Task{{ID: 0, Type: 99}}}},
		{Kind: RecipeDeparture, GraphIndex: -1},
		{Kind: RecipeDeparture, GraphIndex: 3},
		{Kind: TargetChange, Target: -1},
		{Kind: PriceChange, Type: 4, Price: 1},
		{Kind: PriceChange, Type: 0, Price: -1},
		{Kind: Outage, Type: -1},
		{Kind: Restore, Type: 4},
	}
	for _, ev := range bad {
		if _, err := s.Apply(ctxb(), ev); !errors.Is(err, ErrInvalidEvent) {
			t.Errorf("Apply(%+v) err = %v, want ErrInvalidEvent", ev, err)
		}
	}
	after := s.State()
	if after.Events != before.Events || after.Cost != before.Cost || after.WarmResolves != before.WarmResolves || after.ColdResolves != before.ColdResolves {
		t.Errorf("invalid events changed state: before %+v after %+v", before, after)
	}

	// The last graph cannot depart.
	for i := 0; i < 2; i++ {
		mustApply(t, s, Event{Kind: RecipeDeparture, GraphIndex: 0})
	}
	if _, err := s.Apply(ctxb(), Event{Kind: RecipeDeparture, GraphIndex: 0}); !errors.Is(err, ErrInvalidEvent) {
		t.Errorf("last departure err = %v, want ErrInvalidEvent", err)
	}
}

// DisableWarm must mark every resolve cold yet produce identical costs.
func TestSessionDisableWarmSameCosts(t *testing.T) {
	script := []Event{
		{Kind: TargetChange, Target: 80},
		{Kind: PriceChange, Type: 2, Price: 40},
		{Kind: TargetChange, Target: 75},
	}
	run := func(opts Options) []int64 {
		p := core.IllustratingExample()
		p.Target = 70
		s, res, err := New(ctxb(), p, opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		costs := []int64{res.Alloc.Cost}
		for _, ev := range script {
			r := mustApply(t, s, ev)
			if opts.DisableWarm && r.Warm {
				t.Fatalf("DisableWarm resolve reported warm: %+v", r)
			}
			costs = append(costs, r.Alloc.Cost)
		}
		return costs
	}
	warm := run(Options{})
	cold := run(Options{DisableWarm: true})
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("cost %d: warm path %d, cold path %d", i, warm[i], cold[i])
		}
	}
}

// cycle is a 9-event cycle on the paper's example at target 70, the
// shape of the benchmark's session stream: target up, price ×2, outage,
// recipe arrival, target down, restore, departure of the arrival, price
// back, target back. It ends in the start state.
func cycle() []Event {
	arrival := core.NewChain("phi4", 0, 2)
	return []Event{
		{Kind: TargetChange, Target: 90},
		{Kind: PriceChange, Type: 3, Price: 66},
		{Kind: Outage, Type: 2},
		{Kind: RecipeArrival, Graph: &arrival},
		{Kind: TargetChange, Target: 50},
		{Kind: Restore, Type: 2},
		{Kind: RecipeDeparture, GraphIndex: 3},
		{Kind: PriceChange, Type: 3, Price: 33},
		{Kind: TargetChange, Target: 70},
	}
}

// Every warm re-solve of the cycle starts its root LP from the
// structural basis, with presolve on and off, and matches the cold
// oracle; the create, which has no previous optimum, solves its root
// cold.
func TestSessionRootBasisChain(t *testing.T) {
	for _, presolve := range []bool{true, false} {
		p := core.IllustratingExample()
		p.Target = 70
		s, res, err := New(ctxb(), p, Options{ILP: solve.ILPOptions{DisablePresolve: !presolve}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if res.RootLPWarm {
			t.Errorf("presolve %v: the create reports a warm root", presolve)
		}
		for _, ev := range cycle() {
			res := mustApply(t, s, ev)
			checkOracle(t, s, res)
			if !res.Warm || !res.RootLPWarm {
				t.Errorf("presolve %v: event %d (%s): warm %v, root LP warm %v; want both", presolve, res.Seq, res.Kind, res.Warm, res.RootLPWarm)
			}
		}
	}
}

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// One warm event allocates a bounded number of objects: the event copies
// only what it changes, and the root LP starts solved. The paper's
// example at target 70 runs target 80 and back per call.
func TestSessionEventAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pair := []Event{{Kind: TargetChange, Target: 80}, {Kind: TargetChange, Target: 70}}
	perPair := testing.AllocsPerRun(20, func() {
		for _, ev := range pair {
			if _, err := s.Apply(ctxb(), ev); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perEvent := perPair / 2; perEvent > 110 {
		t.Errorf("one target change allocates %.1f objects, want at most 110", perEvent)
	}
}

// Snapshots and events share the committed graphs and machine list:
// reading them (and writing the returned copies) while Apply commits
// events that replace them is race free.
func TestSessionSnapshotsRaceApply(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				full := s.Problem()
				eff, _ := s.EffectiveProblem()
				st := s.State()
				for _, q := range []*core.Problem{full, eff} {
					for g := range q.App.Graphs {
						q.App.Graphs[g].Tasks[0].Type = 0
						q.App.Graphs[g].Name = "scribbled"
					}
					q.Platform.Machines[0].Cost = 1
				}
				if len(st.Alloc.Machines) > 0 {
					st.Alloc.Machines[0] = -1
				}
			}
		}()
	}
	for range 2 {
		for _, ev := range cycle() {
			res := mustApply(t, s, ev)
			if res.Status != StatusOptimal {
				t.Errorf("event %d (%s): status %s", res.Seq, res.Kind, res.Status)
			}
		}
	}
	close(stop)
	wg.Wait()
	if full := s.Problem(); full.App.Graphs[0].Name != "phi1" || full.Platform.Machines[0].Cost != 10 {
		t.Errorf("a snapshot's writes reached the session: %+v", full)
	}
}

// Concurrent commuting events must serialize deterministically: any
// interleaving yields the same final cost and the same event multiset as
// the sequential reference.
func TestSessionConcurrentDeterministic(t *testing.T) {
	events := []Event{
		{Kind: PriceChange, Type: 0, Price: 12},
		{Kind: PriceChange, Type: 1, Price: 20},
		{Kind: PriceChange, Type: 2, Price: 27},
		{Kind: TargetChange, Target: 75},
		{Kind: RecipeArrival, Graph: &core.Graph{Name: "extraA", Tasks: []core.Task{{ID: 0, Type: 2}}}},
		{Kind: RecipeArrival, Graph: &core.Graph{Name: "extraB", Tasks: []core.Task{{ID: 0, Type: 3}}}},
	}
	// The target change does not commute with the others in intermediate
	// costs, but the FINAL problem is the same for every interleaving, so
	// the final cost and the applied-event multiset must be too.
	logKey := func(recs []Record) []string {
		var keys []string
		for _, r := range recs {
			if r.Kind == created {
				continue
			}
			keys = append(keys, string(r.Kind)+" "+r.Key)
		}
		sort.Strings(keys)
		return keys
	}

	newSess := func() *Session {
		p := core.IllustratingExample()
		p.Target = 70
		s, _, err := New(ctxb(), p, Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}

	ref := newSess()
	for _, ev := range events {
		mustApply(t, ref, ev)
	}
	wantCost := ref.State().Cost
	wantKeys := logKey(ref.Log())

	for trial := 0; trial < 3; trial++ {
		s := newSess()
		var wg sync.WaitGroup
		errs := make([]error, len(events))
		for i, ev := range events {
			wg.Add(1)
			go func(i int, ev Event) {
				defer wg.Done()
				_, errs[i] = s.Apply(ctxb(), ev)
			}(i, ev)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d event %d: %v", trial, i, err)
			}
		}
		st := s.State()
		if st.Cost != wantCost {
			t.Fatalf("trial %d: final cost %d, sequential reference %d", trial, st.Cost, wantCost)
		}
		if got := logKey(s.Log()); !equalStrings(got, wantKeys) {
			t.Fatalf("trial %d: event log %v, want %v", trial, got, wantKeys)
		}
		if st.Events != len(events) {
			t.Fatalf("trial %d: %d events applied, want %d", trial, st.Events, len(events))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Closed sessions reject events but keep serving snapshots.
func TestSessionClose(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Close()
	if _, err := s.Apply(ctxb(), Event{Kind: TargetChange, Target: 80}); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply on closed session: %v, want ErrClosed", err)
	}
	if st := s.State(); st.Cost != 124 {
		t.Errorf("closed session state cost %d, want 124", st.Cost)
	}
}

// A cancelled context must fail the event without corrupting the session.
func TestSessionCancelledApply(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{ILP: solve.ILPOptions{DisablePresolve: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := s.State()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(ctx, Event{Kind: TargetChange, Target: 500}); err == nil {
		t.Fatal("Apply with cancelled context succeeded")
	}
	after := s.State()
	if after.Target != before.Target || after.Cost != before.Cost || after.Events != before.Events {
		t.Errorf("cancelled apply mutated state: before %+v after %+v", before, after)
	}
	// The session keeps working afterwards.
	res := mustApply(t, s, Event{Kind: TargetChange, Target: 80})
	checkOracle(t, s, res)
}

// Zero target is trivially optimal at zero cost, and raising it again
// re-solves normally.
func TestSessionZeroTarget(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := mustApply(t, s, Event{Kind: TargetChange, Target: 0})
	if res.Status != StatusOptimal || res.Alloc.Cost != 0 {
		t.Fatalf("zero-target resolve %+v, want optimal cost 0", res)
	}
	fleet := 0
	for _, n := range res.Alloc.Machines {
		fleet += n
	}
	if fleet != 0 {
		t.Errorf("zero-target fleet has %d machines", fleet)
	}
	res = mustApply(t, s, Event{Kind: TargetChange, Target: 70})
	checkOracle(t, s, res)
	if res.Alloc.Cost != 124 {
		t.Errorf("re-raised target cost %d, want 124", res.Alloc.Cost)
	}
}

// Churn accounting: moves are the |Δ machines| sums and the ratio
// denominator accumulates the post-event fleet sizes.
func TestSessionChurnAccounting(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, res0, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	prev := res0.Alloc.Machines
	var wantMoves, wantBase int64
	for _, n := range prev {
		wantBase += int64(n)
		wantMoves += int64(n) // the initial solve "moved" from an empty fleet
	}
	if res0.Churn != int(wantMoves) {
		t.Errorf("initial churn %d, want %d", res0.Churn, wantMoves)
	}
	for _, tg := range []int{90, 40, 70} {
		res := mustApply(t, s, Event{Kind: TargetChange, Target: tg})
		moves := 0
		fleet := 0
		for q := range res.Alloc.Machines {
			d := res.Alloc.Machines[q] - prev[q]
			if d < 0 {
				d = -d
			}
			moves += d
			fleet += res.Alloc.Machines[q]
		}
		if res.Churn != moves {
			t.Errorf("target %d: churn %d, want %d", tg, res.Churn, moves)
		}
		wantMoves += int64(moves)
		wantBase += int64(fleet)
		prev = res.Alloc.Machines
	}
	st := s.State()
	if st.ChurnMoves != wantMoves || st.ChurnBase != wantBase {
		t.Errorf("cumulative churn %d/%d, want %d/%d", st.ChurnMoves, st.ChurnBase, wantMoves, wantBase)
	}
}

// The committed allocation is not just cost-optimal on paper: the
// discrete-event simulator must sustain the target with it (the stream
// replay oracle from internal/stream).
func TestSessionStreamReplayOracle(t *testing.T) {
	p := core.IllustratingExample()
	p.Target = 70
	s, _, err := New(ctxb(), p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustApply(t, s, Event{Kind: TargetChange, Target: 80})
	mustApply(t, s, Event{Kind: PriceChange, Type: 1, Price: 25})
	res := mustApply(t, s, Event{Kind: TargetChange, Target: 75})

	met, err := stream.Simulate(stream.Config{
		Problem:  s.Problem(),
		Alloc:    res.Alloc,
		Duration: 60,
		Warmup:   20,
	}, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if met.Throughput < 75*0.95 {
		t.Errorf("replayed allocation sustains %.1f items/t.u., target 75", met.Throughput)
	}
}

// Warm re-solves must do less LP work than cold ones on the same script.
func TestSessionWarmCheaperThanCold(t *testing.T) {
	script := []Event{
		{Kind: TargetChange, Target: 72},
		{Kind: TargetChange, Target: 74},
		{Kind: PriceChange, Type: 0, Price: 11},
		{Kind: TargetChange, Target: 76},
		{Kind: TargetChange, Target: 78},
		{Kind: PriceChange, Type: 0, Price: 10},
	}
	run := func(opts Options) int {
		p := core.IllustratingExample()
		p.Target = 70
		s, _, err := New(ctxb(), p, opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		iters := 0
		for _, ev := range script {
			iters += mustApply(t, s, ev).LPIterations
		}
		return iters
	}
	warm := run(Options{})
	cold := run(Options{DisableWarm: true})
	if warm > cold {
		t.Errorf("warm path used %d simplex iterations, cold path %d", warm, cold)
	}
	if testing.Verbose() {
		fmt.Printf("warm iters %d, cold iters %d (%.0f%%)\n", warm, cold, 100*float64(warm)/math.Max(1, float64(cold)))
	}
}
