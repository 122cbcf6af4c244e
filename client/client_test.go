package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rentmin"
)

func stub(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return New(ts.URL + "///") // trailing slashes must be tolerated
}

func TestAPIErrorMapping(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"work queue is full"}`))
	})
	_, err := c.Solve(context.Background(), rentmin.IllustratingExample(), nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("StatusCode = %d, want 429", apiErr.StatusCode)
	}
	if apiErr.Message != "work queue is full" {
		t.Errorf("Message = %q", apiErr.Message)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Errorf("429 should be Temporary")
	}
}

func TestAPIErrorNonJSONBody(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusInternalServerError)
	})
	_, err := c.Metrics(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusInternalServerError || apiErr.Temporary() {
		t.Errorf("unexpected mapping: %+v", apiErr)
	}
}

func TestHealthDecodesDraining503(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining","workers":4,"queue_depth":1,"in_flight":2}`))
	})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "draining" || h.Workers != 4 || h.InFlight != 2 {
		t.Errorf("health = %+v", h)
	}
}

func TestSolveBatchLengthMismatchRejected(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"solutions":[]}`))
	})
	_, err := c.SolveBatch(context.Background(), []*rentmin.Problem{rentmin.IllustratingExample()}, nil)
	if err == nil {
		t.Fatal("want an error for a solution-count mismatch")
	}
}

// TestMillisRoundsUp: a positive limit under 1 ms must reach the wire as
// 1, not as 0, which the daemon would read as "use the default".
func TestMillisRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 0},
		{time.Nanosecond, 1},
		{500 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{7 * time.Second, 7000},
		{-5 * time.Millisecond, -5},
		{math.MaxInt64, math.MaxInt64/int64(time.Millisecond) + 1},
	} {
		if got := millis(tc.d); got != tc.want {
			t.Errorf("millis(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
