// Package client is the typed Go client for the rentmind batch-solve
// daemon (cmd/rentmind) and the home of the service's wire types.
//
//	c := client.New("http://localhost:8080")
//	sol, err := c.Solve(ctx, problem, &client.Options{TimeLimit: 2 * time.Second})
//
// Server-side rejections come back as *client.APIError: admission control
// rejects oversize problems with HTTP 422, and a full work queue answers
// 429 with a Retry-After hint (see APIError.RetryAfter and Temporary).
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rentmin"
	"rentmin/internal/obs"
)

// TraceHeader is the HTTP header that carries a solve's trace ID across
// processes: a caller (or the coordinator) stamps it on the request, the
// daemon echoes it on the response, and the coordinator's dispatch
// client forwards it to the answering worker — so one ID names the solve
// in every process's logs and /debug/solves ring. The daemon generates
// an ID when the header is absent or invalid (see the header contract in
// docs/observability.md).
const TraceHeader = "X-Rentmin-Trace-Id"

// WithTraceID returns a context carrying a trace ID; every request this
// client sends under the context is stamped with the TraceHeader. IDs
// are 1–64 characters of [A-Za-z0-9_-]; the daemon replaces anything
// else with a fresh ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return obs.WithTraceID(ctx, id)
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string { return obs.TraceID(ctx) }

// NewTraceID returns a fresh random trace ID (32 hex characters).
func NewTraceID() string { return obs.NewTraceID() }

// Options tunes one Solve or SolveBatch call.
type Options struct {
	// TimeLimit bounds the request's solve wall clock (whole batch for
	// SolveBatch). Zero uses the daemon's default; the daemon clamps
	// values above its configured maximum.
	TimeLimit time.Duration
	// Target, when > 0, overrides the problem's target throughput
	// (Solve only; batch problems keep their own targets).
	Target int
	// Stats opts into the per-solve flight-recorder block on the
	// response (Solution.Stats): trace/worker attribution, queue-wait vs
	// solve-time split, and the search trajectory.
	Stats bool
}

// millis renders a time limit as the wire's time_limit_ms, rounding a
// positive duration up to whole milliseconds. Truncation would turn a
// limit under 1 ms into 0, which the field omits and the daemon reads
// as "use the default".
func millis(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d > 0 && d%time.Millisecond != 0 {
		ms++
	}
	return ms
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	// StatusCode is the HTTP status: 400 malformed, 422 admission
	// rejection, 429 queue overflow, 503 draining, 504 deadline hit
	// before any feasible allocation existed.
	StatusCode int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's Retry-After hint on 429/503 responses,
	// zero when absent.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("rentmind: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Temporary reports whether retrying the same request later can succeed
// (queue overflow or a draining server, as opposed to a rejected or
// malformed problem).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// Client talks to one rentmind daemon. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). The default http.Client is used; see
// NewWithHTTPClient to supply one with custom transport settings.
func New(baseURL string) *Client {
	return NewWithHTTPClient(baseURL, nil)
}

// NewWithHTTPClient is New with an explicit *http.Client (nil falls back
// to http.DefaultClient). Per-request deadlines should be set through
// ctx or Options.TimeLimit rather than http.Client.Timeout, so that slow
// solves and slow transports stay distinguishable.
func NewWithHTTPClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, hc: hc}
}

// BaseURL returns the daemon base URL the client was created with.
func (c *Client) BaseURL() string { return c.base }

// Solve submits one problem to POST /v1/solve and returns its solution.
// Cancelling ctx aborts the request and — server-side — stops the
// branch-and-bound search between nodes.
func (c *Client) Solve(ctx context.Context, p *rentmin.Problem, opts *Options) (*Solution, error) {
	raw, err := encodeProblem(p)
	if err != nil {
		return nil, err
	}
	req := SolveRequest{Problem: raw}
	if opts != nil {
		req.TimeLimitMs = millis(opts.TimeLimit)
		req.Stats = opts.Stats
		if opts.Target > 0 {
			t := opts.Target
			req.Target = &t
		}
	}
	var sol Solution
	if err := c.post(ctx, "/v1/solve", req, &sol); err != nil {
		return nil, err
	}
	return &sol, nil
}

// SolveBatch submits problems to POST /v1/batch and returns the
// solutions in input order. Items that failed or never started before
// the batch deadline have Error set instead of an allocation.
func (c *Client) SolveBatch(ctx context.Context, problems []*rentmin.Problem, opts *Options) ([]Solution, error) {
	req := BatchRequest{Problems: make([]json.RawMessage, len(problems))}
	for i, p := range problems {
		raw, err := encodeProblem(p)
		if err != nil {
			return nil, fmt.Errorf("problem %d: %w", i, err)
		}
		req.Problems[i] = raw
	}
	if opts != nil {
		req.TimeLimitMs = millis(opts.TimeLimit)
		req.Stats = opts.Stats
	}
	var resp BatchResponse
	if err := c.post(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Solutions) != len(problems) {
		return nil, fmt.Errorf("rentmind: batch returned %d solutions for %d problems", len(resp.Solutions), len(problems))
	}
	return resp.Solutions, nil
}

// Health calls GET /healthz. A draining daemon responds 503; that status
// is still decoded into Health (Status "draining") and returned without
// error.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	body, status, hdr, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return h, err
	}
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		return h, apiError(status, body, hdr)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("rentmind: decode health: %w", err)
	}
	return h, nil
}

// Capacity calls GET /v1/capacity: the daemon's static sizing, used by
// a coordinator to discover this worker's in-flight cap.
func (c *Client) Capacity(ctx context.Context) (Capacity, error) {
	var cap Capacity
	err := c.get(ctx, "/v1/capacity", &cap)
	return cap, err
}

// ProblemHash canonically encodes a problem for the content-addressed
// cache and returns its reference hash with the exact document bytes to
// upload. The canonical document is the compact json.Marshal form that
// inline requests carry, with target_throughput zeroed: the target
// travels in each ProblemRef instead, so every solve of the same
// instance at a different target shares one cached document. Upload the
// returned bytes verbatim: the daemon verifies the hash against the
// bytes it receives, so a document hashed in another layout (such as
// the indented form earlier versions used) still resolves under its
// own hash.
func ProblemHash(p *rentmin.Problem) (string, json.RawMessage, error) {
	canon := *p
	canon.Target = 0
	doc, err := encodeProblem(&canon)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), doc, nil
}

// UploadProblem stores a problem document in the daemon's
// content-addressed cache via PUT /v1/problems/{hash}. doc must be the
// exact bytes hash was computed over (use ProblemHash); a mismatch is
// rejected with 400. Uploading an already-cached hash is a cheap no-op.
func (c *Client) UploadProblem(ctx context.Context, hash string, doc json.RawMessage) error {
	body, status, hdr, err := c.do(ctx, http.MethodPut, "/v1/problems/"+hash, doc)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return apiError(status, body, hdr)
	}
	return nil
}

// SolveRef is Solve for a problem already uploaded to the daemon's
// cache: it submits the reference hash plus the target to solve at. A
// daemon that no longer holds the hash answers HTTP 412 (surfaced as
// *APIError); re-upload with UploadProblem and retry.
func (c *Client) SolveRef(ctx context.Context, hash string, target int, opts *Options) (*Solution, error) {
	req := SolveRequest{ProblemRef: &ProblemRef{Hash: hash, Target: &target}}
	if opts != nil {
		req.TimeLimitMs = millis(opts.TimeLimit)
		req.Stats = opts.Stats
	}
	var sol Solution
	if err := c.post(ctx, "/v1/solve", req, &sol); err != nil {
		return nil, err
	}
	return &sol, nil
}

// SolveBatchRef is SolveBatch over cached problem references: every item
// resolves from the daemon's content-addressed cache at its own target.
// One missing hash fails the whole batch with HTTP 412.
func (c *Client) SolveBatchRef(ctx context.Context, refs []ProblemRef, opts *Options) ([]Solution, error) {
	req := BatchRequest{ProblemRefs: refs}
	if opts != nil {
		req.TimeLimitMs = millis(opts.TimeLimit)
		req.Stats = opts.Stats
	}
	var resp BatchResponse
	if err := c.post(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Solutions) != len(refs) {
		return nil, fmt.Errorf("rentmind: batch returned %d solutions for %d refs", len(resp.Solutions), len(refs))
	}
	return resp.Solutions, nil
}

// DebugSolves fetches the daemon's solve flight recorder (GET
// /debug/solves): the last n solve summaries, newest first (n <= 0
// returns everything the ring retains).
func (c *Client) DebugSolves(ctx context.Context, n int) (DebugSolvesResponse, error) {
	var out DebugSolvesResponse
	path := "/debug/solves"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	err := c.get(ctx, path, &out)
	return out, err
}

// RegisterWorker announces a worker endpoint to a coordinator's
// POST /v1/workers and returns the fleet after the registration took
// effect. Worker daemons call it on an interval (see cmd/rentmind
// -register): registration is idempotent and revives evicted members.
func (c *Client) RegisterWorker(ctx context.Context, endpoint string) (FleetResponse, error) {
	var fleet FleetResponse
	err := c.post(ctx, "/v1/workers", RegisterWorkerRequest{Endpoint: endpoint}, &fleet)
	return fleet, err
}

// FleetWorkers lists a coordinator's fleet via GET /v1/workers.
func (c *Client) FleetWorkers(ctx context.Context) (FleetResponse, error) {
	var fleet FleetResponse
	err := c.get(ctx, "/v1/workers", &fleet)
	return fleet, err
}

// DeregisterWorker removes a worker from a coordinator's fleet via
// DELETE /v1/workers?endpoint=...; queued work re-routes to the
// remaining members.
func (c *Client) DeregisterWorker(ctx context.Context, endpoint string) error {
	body, status, hdr, err := c.do(ctx, http.MethodDelete, "/v1/workers?endpoint="+url.QueryEscape(endpoint), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(status, body, hdr)
	}
	return nil
}

// Metrics returns the raw Prometheus-style text of GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, status, hdr, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", apiError(status, body, hdr)
	}
	return string(body), nil
}

// encodeProblem renders a problem as compact JSON: the inline document
// of a request, and the canonical document ProblemHash hashes.
func encodeProblem(p *rentmin.Problem) (json.RawMessage, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("encode problem: %w", err)
	}
	return raw, nil
}

func (c *Client) post(ctx context.Context, path string, reqBody, out interface{}) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	return c.call(ctx, http.MethodPost, path, payload, out)
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.call(ctx, http.MethodGet, path, nil, out)
}

// call sends one request and decodes a 200 response into out; any
// other status is an *APIError.
func (c *Client) call(ctx context.Context, method, path string, payload []byte, out interface{}) error {
	body, status, hdr, err := c.do(ctx, method, path, payload)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(status, body, hdr)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("rentmind: decode %s response: %w", path, err)
	}
	return nil
}

// do is the one transport routine: it sends a request and returns the
// response's body, status and header, from which apiError reads the
// Retry-After hint.
func (c *Client) do(ctx context.Context, method, path string, payload []byte) ([]byte, int, http.Header, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("rentmind: read response: %w", err)
	}
	return body, resp.StatusCode, resp.Header, nil
}

func apiError(status int, body []byte, hdr http.Header) error {
	e := &APIError{StatusCode: status, Message: http.StatusText(status)}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Message = er.Error
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}
