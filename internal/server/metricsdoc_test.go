package server

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsDocumented scrapes /metrics on a coordinator with one
// registered worker and one open session, where every series family is
// emitted, and requires docs/metrics.md to name each of them.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/metrics.md")
	if err != nil {
		t.Fatal(err)
	}
	worker := startWorkerDaemon(t, 1)
	_, c := newElasticCoordinator(t, Config{})
	ctx := context.Background()
	if _, err := c.RegisterWorker(ctx, worker.URL); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if _, _, err := c.NewSession(ctx, fastProblem(10), nil); err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	families := 0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		families++
		if !regexp.MustCompile("`" + regexp.QuoteMeta(name) + "[`{]").Match(doc) {
			t.Errorf("docs/metrics.md does not document %s", name)
		}
	}
	if families == 0 {
		t.Fatal("no # TYPE lines on /metrics")
	}
	for _, name := range []string{"rentmind_sessions_active", "rentmind_worker_up"} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics has no %s family: the scrape does not cover every surface", name)
		}
	}
}
