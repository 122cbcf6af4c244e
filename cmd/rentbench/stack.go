package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"

	"rentmin"
	"rentmin/client"
	"rentmin/internal/server"
)

// daemon is one internal/server behind httptest on loopback, with daemon
// defaults and its log lines formatted into io.Discard.
type daemon struct {
	url   string
	close func()
}

func startDaemon(cfg server.Config) daemon {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	return daemon{url: ts.URL, close: func() {
		ts.Close()
		srv.Close()
	}}
}

// conn is a client held to one keep-alive connection: the closed loop's
// single caller.
type conn struct {
	*client.Client
	tr *http.Transport
}

func dial(url string) conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return conn{client.NewWithHTTPClient(url, &http.Client{Transport: tr}), tr}
}

// fleet is a coordinator dispatching over two worker daemons (Workers 1
// each) through a client.NewFleet pool.
type fleet struct {
	coord   daemon
	pool    *rentmin.SolverPool // owned, and closed, by the coordinator
	workers []conn              // side connections for /metrics scrapes
	closers []func()
}

func startFleet(ctx context.Context) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for k := 0; k < 2; k++ {
		d := startDaemon(server.Config{Workers: 1})
		f.closers = append(f.closers, d.close)
		urls = append(urls, d.url)
		w := dial(d.url)
		f.workers = append(f.workers, w)
		f.closers = append(f.closers, w.tr.CloseIdleConnections)
	}
	hops := &http.Transport{}
	f.closers = append(f.closers, hops.CloseIdleConnections)
	pool, err := client.NewFleet(ctx, urls, &client.FleetConfig{HTTPClient: &http.Client{Transport: hops}})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("dial fleet: %w", err)
	}
	f.pool = pool
	f.coord = startDaemon(server.Config{SolverPool: pool})
	f.closers = append(f.closers, f.coord.close)
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// stack is the serving stack a workload drives, ready for its first op:
// servers listening, fleet dialled, the load connection open, documents
// uploaded and sessions created.
type stack struct {
	c        conn
	fleet    *fleet // fleet workloads only
	sessions []*client.Session
	closers  []func()
}

func startStack(ctx context.Context, pl *plan) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	url := ""
	if pl.fleet {
		f, err := startFleet(ctx)
		if err != nil {
			return nil, err
		}
		st.fleet = f
		st.closers = append(st.closers, f.close)
		url = f.coord.url
	} else {
		d := startDaemon(server.Config{})
		st.closers = append(st.closers, d.close)
		url = d.url
	}
	st.c = dial(url)
	st.closers = append(st.closers, st.c.tr.CloseIdleConnections)
	if _, err := st.c.Health(ctx); err != nil {
		return nil, fmt.Errorf("health: %w", err)
	}
	uploaded := map[string]bool{}
	for _, in := range pl.inputs {
		if in.hash == "" || uploaded[in.hash] {
			continue
		}
		if err := st.c.UploadProblem(ctx, in.hash, in.doc); err != nil {
			return nil, fmt.Errorf("upload: %w", err)
		}
		uploaded[in.hash] = true
	}
	for s := range pl.sessions {
		sp := &pl.sessions[s]
		h, res, err := st.c.NewSession(ctx, sp.start, nil)
		if err != nil {
			return nil, fmt.Errorf("create session %d: %w", s, err)
		}
		// The cycle ends in the start state, so its last step checks the
		// initial solve.
		last := sp.steps[len(sp.steps)-1]
		if err := checkAnswer(last.model, last.target, pl.inputs[last.in].want, resolveAnswer(res)); err != nil {
			return nil, fmt.Errorf("session %d initial solve: %w", s, err)
		}
		st.sessions = append(st.sessions, h)
	}
	return st, nil
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}
