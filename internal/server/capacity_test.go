package server

import (
	"context"
	"strings"
	"testing"
)

func TestCapacityEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 3, QueueDepth: 7, MaxBatch: 11})
	cap, err := c.Capacity(context.Background())
	if err != nil {
		t.Fatalf("Capacity: %v", err)
	}
	if cap.Workers != 3 {
		t.Errorf("Workers = %d, want 3", cap.Workers)
	}
	if cap.QueueCapacity != 7 {
		t.Errorf("QueueCapacity = %d, want 7", cap.QueueCapacity)
	}
	if cap.MaxBatch != 11 {
		t.Errorf("MaxBatch = %d, want 11", cap.MaxBatch)
	}
}

func TestCapacityDefaults(t *testing.T) {
	s, c := newTestServer(t, Config{})
	cap, err := c.Capacity(context.Background())
	if err != nil {
		t.Fatalf("Capacity: %v", err)
	}
	if cap.Workers != s.Workers() || cap.Workers < 1 {
		t.Errorf("Workers = %d, want the server's %d", cap.Workers, s.Workers())
	}
	if cap.MaxBatch != 64 || cap.QueueCapacity != 64 {
		t.Errorf("defaults not reported: %+v", cap)
	}
}

// TestWorkerGaugesAbsentOnPlainDaemon pins that a non-coordinator daemon
// does not emit fleet series (dashboards key on their presence).
func TestWorkerGaugesAbsentOnPlainDaemon(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if strings.Contains(text, "rentmind_worker_up") {
		t.Errorf("plain daemon exports fleet gauges:\n%s", text)
	}
}
