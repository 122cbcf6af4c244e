package main

import (
	"fmt"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/experiments"
	"rentmin/internal/graphgen"
	"rentmin/internal/rng"
)

// A workload is one traffic mix. Its inputs are a pure function of
// (workload, seed): the seed relabels the instances (machine types and
// recipe order are permuted, so every document and its ProblemHash
// changes) and shuffles the order of the operations in a pass. The
// instances themselves come from frozen pools of paper-generator draws
// (see the pool tables below), so two seeds serve problems of the same
// difficulty and the end-to-end numbers stay comparable across seeds.
type workload struct {
	name string
	why  string
	// build makes the workload's plan. short keeps a few inputs only (the
	// smoke test's one-pass run).
	build func(seed uint64, short bool) (*plan, error)
}

var workloads = []workload{
	{"table3-http", "paper Table III example at rho 10..200 inline over /v1/solve: tiny solves, so HTTP, client and facade dominate", buildTable3},
	{"paper-mix", "Fig. 3 and Fig. 6 generator instances over /v1/solve: many small node LPs in deep trees (branching, cuts, presolve)", buildPaperMix},
	{"wide-catalog", "60 recipes of 1-3 tasks over 200 machine types over /v1/solve: 201x260 LPs, 99% zeros, where the pivot kernel dominates", buildWide},
	{"session-stream", "4 online sessions replaying a 9-event cycle (target, price, outage, arrival, departure): warm re-solves, no one-shot solves", buildSessions},
	{"fleet-batch", "coordinator plus 2 workers, 8-ref batches over cached documents: the only path through internal/pool and remote.go", buildFleet},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one distinct problem the workload serves. want is the oracle
// cost, filled in by runOracle.
type input struct {
	p     *rentmin.Problem
	model *rentmin.CostModel
	hash  string // client.ProblemHash of p (fleet documents only)
	doc   []byte // the bytes hash was computed over
	want  int64
}

type opKind int

const (
	opSolve opKind = iota // POST /v1/solve, inline document
	opBatch               // POST /v1/batch of problem_refs
	opEvent               // POST /v1/sessions/{id}/events, one event
)

// op is one closed-loop request.
type op struct {
	kind  opKind
	items []int               // input indexes: one per solve, one per batch ref
	refs  []client.ProblemRef // opBatch: the wire refs of items
	sess  int                 // opEvent: session index
	step  int                 // opEvent: position in the session's cycle
}

// sessionPlan is one session's start problem and the event cycle it
// replays. The cycle returns the session to its start state, so every
// pass serves the same events against the same states.
type sessionPlan struct {
	start  *rentmin.Problem
	wire   []client.SessionEvent
	events []rentmin.SessionEvent
	// steps is filled by runOracle: the state after each event.
	steps []sessionStep
}

// sessionStep is the state after one event: the full problem the served
// allocation is checked against, and the input holding the effective
// problem whose cold solve is the oracle.
type sessionStep struct {
	model  *rentmin.CostModel
	target int
	in     int
}

// plan is a workload's generated inputs and one pass of operations.
type plan struct {
	inputs   []input
	ops      []op
	sessions []sessionPlan
	fleet    bool // ops go to a coordinator over two worker daemons
}

// items counts the operations' items in one pass (batch refs counted
// individually).
func (pl *plan) items() int {
	n := 0
	for _, o := range pl.ops {
		if o.kind == opEvent {
			n++
		} else {
			n += len(o.items)
		}
	}
	return n
}

// Frozen instance pools. Each entry is the index i of a draw
// graphgen.Generate(cfg, rng.New(poolSeed).Sub('c', i)), solved at
// target paperTargets[i%4] (all four targets for the fleet pool). Draws
// were screened once, in index order, with rentmin.Solve (Workers 1):
// a draw was kept when the proven solve of the draw and of five
// relabelings (rng.New(k), k = 1..5) each took an LP iteration count
// within the family's band and the six counts were within a factor 1.2
// of each other. Bands:
// fig3 [500, 6000], fig6 [2000, 15000], wide [300, 8000], fleet [300,
// 6000]. The screen bounds run length (the generator's tails reach
// seconds per solve) and keeps relabeled copies as hard as their base;
// the pools stay fixed when the solver changes, so two commits always
// serve identical inputs.
var (
	paperTargets = []int{50, 100, 150, 200}

	fig3Pool = []uint64{0, 2, 3, 4, 5, 7, 8, 10, 12, 13, 14, 16, 17, 18, 20, 23, 24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 37, 42, 43, 45, 47}
	fig6Pool = []uint64{0, 1, 2, 3, 5, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21, 23, 24, 26, 27, 28, 32, 34, 36, 39, 41, 42, 43, 45, 47, 58, 66}
	widePool = []uint64{2, 11, 14, 15, 17, 21, 22, 26, 30, 31, 33, 34, 39, 46, 47, 50, 55, 59, 63, 68, 69, 77, 85, 89, 93, 96, 100, 112, 116, 124, 160, 180}
	// fleetPool draws come from fleetSeed with the Fig. 3 settings.
	fleetPool = []uint64{2, 3, 4, 11, 12, 15, 16, 18, 22, 24, 27, 29, 30, 32, 33, 36}

	// sessionPool entries were screened from sessionSeed draws at target
	// 100: an initial solve of 500 to 20000 LP iterations, every event of
	// the cycle proven optimal with its cold oracle under 30000
	// iterations. priceType is the type with the most machines in the
	// initial optimum; outageType the next such type that some recipe
	// avoids, so at least one recipe survives the outage.
	sessionPool = []struct {
		index                 uint64
		priceType, outageType int
	}{
		{3, 92, 22},
		{4, 7, 91},
		{5, 43, 32},
		{14, 11, 15},
	}
)

const (
	fig3Seed    = 0xF193 // experiments.Fig3Setting().Seed
	fig6Seed    = 0xF196 // experiments.Fig6Setting().Seed
	wideSeed    = 0x5BA2
	fleetSeed   = 0xF1EE
	sessionSeed = 0x5E55

	sessionTarget = 100
)

// wideConfig is the repository's large-sparse shape held within the
// daemon's default admission limits: 60 recipes of 1-3 tasks over 200
// machine types.
var wideConfig = graphgen.Config{
	NumGraphs: 60, MinTasks: 1, MaxTasks: 3, MutatePercent: 1.0, NumTypes: 200,
	CostMin: 1, CostMax: 100, ThroughputMin: 2, ThroughputMax: 12,
}

// sessionConfig draws the session instances: 40 recipes of 2-4 tasks
// over 100 machine types, with the paper's price and throughput ranges.
var sessionConfig = graphgen.Config{
	NumGraphs: 40, MinTasks: 2, MaxTasks: 4, MutatePercent: 0.5, NumTypes: 100,
	CostMin: 1, CostMax: 100, ThroughputMin: 10, ThroughputMax: 100,
}

// relabel returns a copy of p with its machine types permuted and its
// recipes reordered, plus the type permutation (perm[old] = new). The
// copy has the same optimal cost as p.
func relabel(p *rentmin.Problem, src *rng.Source) (*rentmin.Problem, []int) {
	q := p.Clone()
	perm := src.Perm(q.NumTypes())
	for old, nw := range perm {
		q.Platform.Machines[nw] = p.Platform.Machines[old]
	}
	for gi, g := range p.App.Graphs {
		for ti, t := range g.Tasks {
			q.App.Graphs[gi].Tasks[ti].Type = perm[t.Type]
		}
	}
	graphs := make([]rentmin.Graph, len(q.App.Graphs))
	for old, nw := range src.Perm(len(graphs)) {
		graphs[nw] = q.App.Graphs[old]
	}
	q.App.Graphs = graphs
	return q, perm
}

// draw generates pool entry i of a family and relabels it for the seed.
func draw(cfg graphgen.Config, poolSeed, i uint64, seed *rng.Source) (*rentmin.Problem, []int, error) {
	base, err := graphgen.Generate(cfg, rng.New(poolSeed).Sub('c', i))
	if err != nil {
		return nil, nil, err
	}
	q, perm := relabel(base, seed.Sub(poolSeed, i))
	return q, perm, nil
}

func newInput(p *rentmin.Problem) input {
	return input{p: p, model: rentmin.NewCostModel(p)}
}

// shuffledSolves makes one pass of inline solves over every input, in a
// seeded order.
func shuffledSolves(pl *plan, src *rng.Source) {
	for _, i := range src.Perm(len(pl.inputs)) {
		pl.ops = append(pl.ops, op{kind: opSolve, items: []int{i}})
	}
}

func keep(pool []uint64, short bool, n int) []uint64 {
	if short && len(pool) > n {
		return pool[:n]
	}
	return pool
}

func buildTable3(seed uint64, short bool) (*plan, error) {
	src := rng.New(seed).Sub('t')
	p, _ := relabel(rentmin.IllustratingExample(), src.Sub('r'))
	pl := &plan{}
	for t := 10; t <= 200; t += 10 {
		if short && t > 40 {
			break
		}
		q := p.Clone()
		q.Target = t
		pl.inputs = append(pl.inputs, newInput(q))
	}
	shuffledSolves(pl, src.Sub('o'))
	return pl, nil
}

// addPool appends one input per pool entry, at its screened target.
func addPool(pl *plan, cfg graphgen.Config, poolSeed uint64, pool []uint64, src *rng.Source) error {
	for _, i := range pool {
		p, _, err := draw(cfg, poolSeed, i, src)
		if err != nil {
			return err
		}
		p.Target = paperTargets[i%4]
		pl.inputs = append(pl.inputs, newInput(p))
	}
	return nil
}

func buildPaperMix(seed uint64, short bool) (*plan, error) {
	src := rng.New(seed).Sub('p')
	pl := &plan{}
	if err := addPool(pl, experiments.Fig3Setting().Gen, fig3Seed, keep(fig3Pool, short, 4), src); err != nil {
		return nil, err
	}
	if err := addPool(pl, experiments.Fig6Setting().Gen, fig6Seed, keep(fig6Pool, short, 4), src); err != nil {
		return nil, err
	}
	shuffledSolves(pl, src.Sub('o'))
	return pl, nil
}

func buildWide(seed uint64, short bool) (*plan, error) {
	src := rng.New(seed).Sub('w')
	pl := &plan{}
	if err := addPool(pl, wideConfig, wideSeed, keep(widePool, short, 4), src); err != nil {
		return nil, err
	}
	shuffledSolves(pl, src.Sub('o'))
	return pl, nil
}

// fleetBatchSize is the number of problem_refs per /v1/batch request.
const fleetBatchSize = 8

func buildFleet(seed uint64, short bool) (*plan, error) {
	src := rng.New(seed).Sub('f')
	pl := &plan{fleet: true}
	for _, i := range keep(fleetPool, short, 2) {
		p, _, err := draw(experiments.Fig3Setting().Gen, fleetSeed, i, src)
		if err != nil {
			return nil, err
		}
		hash, doc, err := client.ProblemHash(p)
		if err != nil {
			return nil, err
		}
		for _, t := range paperTargets {
			q := p.Clone()
			q.Target = t
			in := newInput(q)
			in.hash, in.doc = hash, doc
			pl.inputs = append(pl.inputs, in)
		}
	}
	refs := src.Sub('o').Perm(len(pl.inputs))
	for len(refs) > 0 {
		n := min(fleetBatchSize, len(refs))
		o := op{kind: opBatch, items: refs[:n]}
		for _, i := range o.items {
			t := pl.inputs[i].p.Target
			o.refs = append(o.refs, client.ProblemRef{Hash: pl.inputs[i].hash, Target: &t})
		}
		pl.ops = append(pl.ops, o)
		refs = refs[n:]
	}
	return pl, nil
}

// buildSessions makes the session-stream plan: each session replays the
// cycle target up, price x2, outage, recipe arrival, target down,
// restore, departure of the arrival, price back, target back. Events go
// round-robin across sessions, one event per request.
func buildSessions(seed uint64, short bool) (*plan, error) {
	src := rng.New(seed).Sub('s')
	pl := &plan{}
	pool := sessionPool
	if short {
		pool = pool[:1]
	}
	for _, e := range pool {
		p, perm, err := draw(sessionConfig, sessionSeed, e.index, src)
		if err != nil {
			return nil, err
		}
		p.Target = sessionTarget
		ar := rng.New(sessionSeed).Sub('a', e.index)
		types := make([]int, ar.IntBetween(2, 4))
		for k := range types {
			types[k] = perm[ar.IntN(p.NumTypes())]
		}
		arrival := rentmin.NewChain("arrival", types...)
		price, outage := perm[e.priceType], perm[e.outageType]
		p0 := p.Platform.Machines[price].Cost
		departing := p.NumGraphs() // the arrival is appended last
		sp := sessionPlan{
			start: p,
			wire: []client.SessionEvent{
				client.TargetChangeEvent(sessionTarget + 20),
				client.PriceChangeEvent(price, 2*p0),
				client.OutageEvent(outage),
				client.RecipeArrivalEvent(arrival),
				client.TargetChangeEvent(sessionTarget - 20),
				client.RestoreEvent(outage),
				client.RecipeDepartureEvent(departing),
				client.PriceChangeEvent(price, p0),
				client.TargetChangeEvent(sessionTarget),
			},
			events: []rentmin.SessionEvent{
				{Kind: rentmin.SessionTargetChange, Target: sessionTarget + 20},
				{Kind: rentmin.SessionPriceChange, Type: price, Price: 2 * p0},
				{Kind: rentmin.SessionOutage, Type: outage},
				{Kind: rentmin.SessionRecipeArrival, Graph: &arrival},
				{Kind: rentmin.SessionTargetChange, Target: sessionTarget - 20},
				{Kind: rentmin.SessionRestore, Type: outage},
				{Kind: rentmin.SessionRecipeDeparture, GraphIndex: departing},
				{Kind: rentmin.SessionPriceChange, Type: price, Price: p0},
				{Kind: rentmin.SessionTargetChange, Target: sessionTarget},
			},
		}
		pl.sessions = append(pl.sessions, sp)
	}
	for step := range pl.sessions[0].events {
		for s := range pl.sessions {
			pl.ops = append(pl.ops, op{kind: opEvent, sess: s, step: step})
		}
	}
	return pl, nil
}
