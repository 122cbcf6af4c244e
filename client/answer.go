package client

import (
	"encoding/json"

	"rentmin"
	"rentmin/internal/core"
)

// The one-pass reader of the answers on the hot paths: a Solution
// (/v1/solve), a BatchResponse (/v1/batch) and a SessionEventsResponse
// (/v1/sessions/{id}/events). The scan accepts exactly the shape the
// daemon writes for a successful answer (json.Marshal of the wire type):
// keys in exact case and each at most once, strings of printable ASCII
// without escapes, integer literals in integer fields. It reads the body
// twice, as core.Scanner.Problem reads a document: a sizing pass counts
// the elements, then a fill pass stores every answer's int arrays in one
// array, its strings in one string, and its solutions, results and
// allocations in one array each. Any other body goes whole to
// encoding/json, which defines what an answer means and words every
// error: a stats block, an error item, null, an escaped string, an
// unknown or repeated key. FuzzAnswer holds the scan to it.

// decodeAnswer decodes a 200 answer's body into out.
func decodeAnswer(body []byte, out interface{}) error {
	if scanAnswer(body, out) {
		return nil
	}
	return json.Unmarshal(body, out)
}

// scanAnswer decodes body into out, which must point at a zero value,
// when out is one of the three answer shapes and body has the shape the
// daemon writes for it. It reports false, having changed nothing, for
// any other body or type.
func scanAnswer(body []byte, out interface{}) bool {
	var d answerReader
	switch v := out.(type) {
	case *Solution:
		var sol Solution
		if !d.read(body, func() { d.solution(&sol) }) {
			return false
		}
		*v = sol
	case *BatchResponse:
		var resp BatchResponse
		if !d.read(body, func() { d.batch(&resp) }) {
			return false
		}
		*v = resp
	case *SessionEventsResponse:
		var resp SessionEventsResponse
		if !d.read(body, func() { d.events(&resp) }) {
			return false
		}
		*v = resp
	default:
		return false
	}
	return true
}

// answerReader holds the state of one answer scan: a scanner and the
// storage of the two passes.
type answerReader struct {
	core.Scanner
	ints      core.Arena[int]
	allocs    core.Arena[Allocation]
	solutions core.Arena[Solution]
	results   core.Arena[SessionResolve]
	text      core.Text
}

// read runs fill over body twice, sizing then filling, and reports
// whether body has the shape. What the sizing pass writes is either
// written again by the fill pass or left in the arenas' scratch.
func (d *answerReader) read(body []byte, fill func()) bool {
	d.Scanner = core.NewScanner(body)
	fill()
	if !d.End() {
		return false
	}
	d.ints.Alloc()
	d.allocs.Alloc()
	d.solutions.Alloc()
	d.results.Alloc()
	d.text.Alloc()
	d.Scanner = core.NewScanner(body)
	fill()
	return d.End()
}

func (d *answerReader) batch(resp *BatchResponse) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		if d.Field(&seen, "solutions") == 0 {
			for more := d.Open('['); more; more = d.More(']') {
				d.solution(d.solutions.Next())
			}
			resp.Solutions = d.solutions.Since(0)
		}
	}
}

// The keys of a Solution and a SessionResolve: their own four and eight,
// then those of their embedded rentmin.SearchStats, in searchStat's
// order.
var (
	searchKeys   = []string{"nodes", "lp_iterations", "lp_solves", "warm_lp_solves", "cuts", "cut_rounds", "presolve", "unresolved_lps"}
	solutionKeys = append([]string{"allocation", "proven", "bound", "elapsed_ms"}, searchKeys...)
	resolveKeys  = append([]string{"seq", "kind", "status", "allocation", "warm", "root_lp_warm", "churn", "solve_ms"}, searchKeys...)
)

func (d *answerReader) solution(s *Solution) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch k := d.Field(&seen, solutionKeys...); k {
		case 0:
			d.allocation(&s.Allocation)
		case 1:
			s.Proven = d.Bool()
		case 2:
			s.Bound = d.Float()
		case 3:
			s.ElapsedMs = d.Float()
		default:
			d.searchStat(&s.SearchStats, k-4)
		}
	}
}

func (d *answerReader) events(resp *SessionEventsResponse) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "results", "state") {
		case 0:
			for more := d.Open('['); more; more = d.More(']') {
				d.resolve(d.results.Next())
			}
			resp.Results = d.results.Since(0)
		case 1:
			d.state(&resp.State)
		}
	}
}

func (d *answerReader) resolve(r *SessionResolve) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch k := d.Field(&seen, resolveKeys...); k {
		case 0:
			r.Seq = d.Int()
		case 1:
			r.Kind = d.text.Add(d.Str())
		case 2:
			r.Status = d.text.Add(d.Str())
		case 3:
			d.allocation(d.allocs.Next())
			// Point at the fill pass's slot, never at the sizing pass's
			// scratch, which lives in the reader.
			if all := d.allocs.Since(0); all != nil {
				r.Allocation = &all[len(all)-1]
			}
		case 4:
			r.Warm = d.Bool()
		case 5:
			r.RootLPWarm = d.Bool()
		case 6:
			r.Churn = d.Int()
		case 7:
			r.SolveMs = d.Float()
		default:
			d.searchStat(&r.SearchStats, k-8)
		}
	}
}

func (d *answerReader) state(st *SessionState) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "id", "events", "graphs", "tasks", "target", "feasible", "cost", "allocation",
			"offline", "warm_resolves", "cold_resolves", "churn_moves", "churn_ratio") {
		case 0:
			st.ID = d.text.Add(d.Str())
		case 1:
			st.Events = d.Int()
		case 2:
			st.Graphs = d.Int()
		case 3:
			st.Tasks = d.Int()
		case 4:
			st.Target = d.Int()
		case 5:
			st.Feasible = d.Bool()
		case 6:
			st.Cost = int64(d.Int())
		case 7:
			d.allocation(&st.Alloc)
		case 8:
			st.Offline = d.intArray()
		case 9:
			st.WarmResolves = d.Int()
		case 10:
			st.ColdResolves = d.Int()
		case 11:
			st.ChurnMoves = int64(d.Int())
		case 12:
			st.ChurnRatio = d.Float()
		}
	}
}

func (d *answerReader) allocation(a *Allocation) {
	var seen uint32
	for more := d.Open('{'); more; more = d.More('}') {
		switch d.Field(&seen, "graph_throughput", "machines", "cost") {
		case 0:
			a.GraphThroughput = d.intArray()
		case 1:
			a.Machines = d.intArray()
		case 2:
			a.Cost = int64(d.Int())
		}
	}
}

// intArray reads an array of integers into the answer's one int array.
func (d *answerReader) intArray() []int {
	start := d.ints.Len()
	for more := d.Open('['); more; more = d.More(']') {
		*d.ints.Next() = d.Int()
	}
	return d.ints.Since(start)
}

// searchStat reads the value of searchKeys[k].
func (d *answerReader) searchStat(st *rentmin.SearchStats, k int) {
	switch k {
	case 0:
		st.Nodes = d.Int()
	case 1:
		st.LPIterations = d.Int()
	case 2:
		st.LPSolves = d.Int()
	case 3:
		st.WarmLPSolves = d.Int()
	case 4:
		st.Cuts = d.Int()
	case 5:
		st.CutRounds = d.Int()
	case 6:
		var seen uint32
		for more := d.Open('{'); more; more = d.More('}') {
			switch d.Field(&seen, "rows_removed", "cols_fixed", "bounds_tightened", "coeffs_reduced") {
			case 0:
				st.Presolve.RowsRemoved = d.Int()
			case 1:
				st.Presolve.ColsFixed = d.Int()
			case 2:
				st.Presolve.BoundsTightened = d.Int()
			case 3:
				st.Presolve.CoeffsReduced = d.Int()
			}
		}
	case 7:
		st.UnresolvedLPs = d.Int()
	}
}
