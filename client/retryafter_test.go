package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rentmin/client"
)

// TestCapacityOnDrainingDaemonCarriesRetryAfter: a GET helper surfaces
// the daemon's Retry-After hint like a POST does. A draining daemon
// answers /v1/capacity with 503 and Retry-After: 1.
func TestCapacityOnDrainingDaemonCarriesRetryAfter(t *testing.T) {
	hs, srv := startWorker(t)
	srv.BeginDrain()
	_, err := client.New(hs.URL).Capacity(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Capacity on a draining daemon: err = %v, want *client.APIError", err)
	}
	want := client.APIError{StatusCode: 503, Message: "server is shutting down", RetryAfter: time.Second}
	if *apiErr != want {
		t.Errorf("Capacity on a draining daemon: %+v, want %+v", *apiErr, want)
	}
}
