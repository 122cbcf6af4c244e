package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rentmin/client"
)

// span is one traced interval. Spans of one request share a trace ID;
// Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  string  `json:"trace_id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(trace, name string, parent int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: ms(start.Sub(l.t0)), End: ms(end.Sub(l.t0))})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	kids := make(map[int][][2]float64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range l.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// write stores the spans and their self times as trace-<workload>.json.
func (l *spanLog) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, l.selfTimes(), l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}

// tracer collects the traced passes: a harness-minted trace ID per op,
// spans for the first pass, and what every answer reported.
type tracer struct {
	log      *spanLog
	keep     int // ops whose spans are kept: one pass
	seq      int
	rtts     []float64
	served   []servedItem
	events   []servedEvent
	rejected int
}

// servedItem is one served solve's search counters, compared afterwards
// with the ladder's in-process solve of the same input.
type servedItem struct {
	in                 int
	nodes, iters, cuts int
}

type servedEvent struct {
	sess, step int
	rtt        float64
	res        client.SessionResolve
}

func (t *tracer) begin(ctx context.Context) (context.Context, string) {
	t.seq++
	id := fmt.Sprintf("rentbench-op-%06d", t.seq)
	return client.WithTraceID(ctx, id), id
}

var httpSpan = map[opKind]string{opSolve: "http.solve", opBatch: "http.batch", opEvent: "http.event"}

func (t *tracer) end(o op, oc outcome, id string, start, done time.Time) {
	httpEnd := start.Add(oc.lat)
	t.rtts = append(t.rtts, ms(oc.lat))
	var ae *client.APIError
	if errors.As(oc.err, &ae) && (ae.StatusCode == 429 || ae.StatusCode >= 500) {
		t.rejected++
	}
	for k, s := range oc.sols {
		t.served = append(t.served, servedItem{in: o.items[k], nodes: s.Nodes, iters: s.LPIterations, cuts: s.Cuts})
	}
	for _, res := range oc.events {
		t.events = append(t.events, servedEvent{sess: o.sess, step: o.step, rtt: ms(oc.lat), res: res})
	}
	if t.seq > t.keep {
		return
	}
	root := t.log.add(id, "op", 0, start, done)
	hs := t.log.add(id, httpSpan[o.kind], root, start, httpEnd)
	// Server phases carry offsets from the handler's start, which the
	// harness aligns with the request's start. Phases reported without
	// an offset (batch items, session re-solves) are aligned to end with
	// the response.
	for _, s := range oc.sols {
		if s.Stats == nil {
			continue
		}
		if len(s.Stats.Phases) == 0 {
			d := time.Duration((s.Stats.QueueWaitMs + s.Stats.SolveMs) * float64(time.Millisecond))
			t.log.add(id, "server.item", hs, httpEnd.Add(-d), httpEnd)
		}
		for _, p := range s.Stats.Phases {
			from := start.Add(time.Duration(p.StartMs * float64(time.Millisecond)))
			t.log.add(id, "server."+p.Name, hs, from, from.Add(time.Duration(p.DurMs*float64(time.Millisecond))))
		}
	}
	for _, res := range oc.events {
		d := time.Duration(res.SolveMs * float64(time.Millisecond))
		t.log.add(id, "session.solve", hs, httpEnd.Add(-d), httpEnd)
	}
}
