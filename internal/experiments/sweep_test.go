package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"strings"
	"testing"
	"time"
)

// quickFig3 is a scaled-down Figure 3 campaign for regression tests.
func quickFig3() Setting {
	s := Fig3Setting().Scaled(6, []int{40, 100, 160})
	s.Heuristics.Iterations = 500
	return s
}

func TestRunSweepFig3Scaled(t *testing.T) {
	res, err := RunSweep(quickFig3())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(res.Algos) != 6 { // ILP + 5 heuristics
		t.Fatalf("%d algorithms, want 6", len(res.Algos))
	}
	ilp := res.Algo("ILP")
	if ilp == nil {
		t.Fatal("no ILP aggregate")
	}
	for ti, target := range res.Targets {
		// All solves proven optimal at this scale: normalized ILP == 1,
		// ILP always among the best.
		if res.ILPProven[ti] != res.Setting.Configs {
			t.Errorf("target %d: only %d/%d ILP solves proven", target, res.ILPProven[ti], res.Setting.Configs)
		}
		if ilp.MeanNormalized[ti] != 1.0 {
			t.Errorf("target %d: ILP normalized = %g", target, ilp.MeanNormalized[ti])
		}
		if ilp.BestCount[ti] != res.Setting.Configs {
			t.Errorf("target %d: ILP best in %d/%d", target, ilp.BestCount[ti], res.Setting.Configs)
		}
		for _, a := range res.Algos {
			n := a.MeanNormalized[ti]
			if n <= 0.5 || n > 1.0+1e-9 {
				t.Errorf("target %d: %s normalized %g outside (0.5, 1]", target, a.Name, n)
			}
			if a.BestCount[ti] < 0 || a.BestCount[ti] > res.Setting.Configs {
				t.Errorf("target %d: %s best count %d", target, a.Name, a.BestCount[ti])
			}
			if a.MeanSeconds[ti] < 0 {
				t.Errorf("target %d: %s negative time", target, a.Name)
			}
		}
	}
}

// The paper's heuristic hierarchy (Section VIII-C): H32Jump dominates H32,
// which dominates their common H1 start, in mean normalized cost.
func TestSweepHeuristicHierarchy(t *testing.T) {
	res, err := RunSweep(quickFig3())
	if err != nil {
		t.Fatal(err)
	}
	h1 := res.Algo("H1")
	h32 := res.Algo("H32")
	jump := res.Algo("H32Jump")
	for ti, target := range res.Targets {
		if h32.MeanNormalized[ti] < h1.MeanNormalized[ti]-1e-9 {
			t.Errorf("target %d: H32 (%g) worse than H1 (%g)", target, h32.MeanNormalized[ti], h1.MeanNormalized[ti])
		}
		if jump.MeanNormalized[ti] < h32.MeanNormalized[ti]-1e-9 {
			t.Errorf("target %d: H32Jump (%g) worse than H32 (%g)", target, jump.MeanNormalized[ti], h32.MeanNormalized[ti])
		}
	}
}

func TestSweepDeterministicUnderSeed(t *testing.T) {
	a, err := RunSweep(quickFig3())
	if err != nil {
		t.Fatal(err)
	}
	s := quickFig3()
	s.Workers = 2 // different schedule, same sub-streams
	b, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Algos {
		for ti := range a.Targets {
			if a.Algos[i].MeanNormalized[ti] != b.Algos[i].MeanNormalized[ti] {
				t.Errorf("%s at %d differs across worker counts", a.Algos[i].Name, a.Targets[ti])
			}
			if a.Algos[i].BestCount[ti] != b.Algos[i].BestCount[ti] {
				t.Errorf("%s best count at %d differs across worker counts", a.Algos[i].Name, a.Targets[ti])
			}
		}
	}
}

func TestSweepWithH0(t *testing.T) {
	s := quickFig3()
	s.Configs = 3
	s.IncludeH0 = true
	res, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algos) != 7 {
		t.Fatalf("%d algorithms, want 7 with H0", len(res.Algos))
	}
	h0 := res.Algo("H0")
	if h0 == nil {
		t.Fatal("H0 missing")
	}
	// H0 is a random split: it must never beat the proven optimum.
	for ti := range res.Targets {
		if h0.MeanNormalized[ti] > 1.0+1e-9 {
			t.Errorf("H0 normalized %g > 1", h0.MeanNormalized[ti])
		}
	}
}

func TestSweepValidation(t *testing.T) {
	s := quickFig3()
	s.Configs = 0
	if _, err := RunSweep(s); err == nil {
		t.Error("accepted zero configs")
	}
	s = quickFig3()
	s.Targets = nil
	if _, err := RunSweep(s); err == nil {
		t.Error("accepted empty targets")
	}
	s = quickFig3()
	s.Gen.NumTypes = 0
	if _, err := RunSweep(s); err == nil {
		t.Error("accepted invalid generator config")
	}
}

func TestSweepTimeLimitedILPStillFeasible(t *testing.T) {
	// Even with an absurdly small ILP budget the sweep must complete: the
	// warm start guarantees a feasible ILP answer.
	s := quickFig3()
	s.Configs = 2
	s.ILPTimeLimit = time.Nanosecond
	res, err := RunSweep(s)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	// Under the limit the "ILP" may be beaten by heuristics; normalized
	// values may exceed 1. Just check structure.
	for ti := range res.Targets {
		if res.ILPProven[ti] > res.Setting.Configs {
			t.Errorf("proven count out of range")
		}
	}
}

func TestFormatTableAndCSV(t *testing.T) {
	s := quickFig3()
	s.Configs = 2
	res, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []Metric{MetricNormalized, MetricBestCount, MetricSeconds} {
		out := res.FormatTable(metric)
		if !strings.Contains(out, "H32Jump") || !strings.Contains(out, "fig3") {
			t.Errorf("table missing headers:\n%s", out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 3+len(res.Targets) {
			t.Errorf("%s: %d lines, want %d", metric, len(lines), 3+len(res.Targets))
		}
	}

	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse CSV: %v", err)
	}
	want := 1 + 3*len(res.Targets)*len(res.Algos) + len(res.Targets)
	if len(records) != want {
		t.Errorf("%d CSV records, want %d", len(records), want)
	}
	if records[0][0] != "setting" {
		t.Errorf("bad header: %v", records[0])
	}
}

func TestMetricString(t *testing.T) {
	if MetricNormalized.String() != "normalized-cost" ||
		MetricBestCount.String() != "best-count" ||
		MetricSeconds.String() != "time-seconds" {
		t.Error("Metric.String mismatch")
	}
}

func TestTargetRange(t *testing.T) {
	got := TargetRange(20, 60, 20)
	if len(got) != 3 || got[0] != 20 || got[2] != 60 {
		t.Errorf("TargetRange = %v", got)
	}
}

// Extension: the Section VIII-F asymptotic claim — H1's normalized cost
// approaches 1 as the target grows.
func TestAsymptoteH1ApproachesOptimal(t *testing.T) {
	s := AsymptoteSetting().Scaled(6, []int{400})
	s.Heuristics.Iterations = 200
	res, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	// At large targets ceiling effects amortize away and the best single
	// graph is near-optimal (>= 98% here; the full campaign in
	// EXPERIMENTS.md shows the trend over doubling targets).
	if got := res.Algo("H1").MeanNormalized[0]; got < 0.98 {
		t.Errorf("H1 normalized %g at rho=400, expected near-optimal (>= 0.98)", got)
	}
}

func TestPaperSettingsShape(t *testing.T) {
	for _, s := range []Setting{Fig3Setting(), Fig6Setting(), Fig7Setting(), Fig8Setting(0)} {
		if s.Configs != 100 {
			t.Errorf("%s: %d configs, want 100", s.Name, s.Configs)
		}
		if len(s.Targets) != 19 { // 20..200 step 10
			t.Errorf("%s: %d targets, want 19", s.Name, len(s.Targets))
		}
		if err := s.Gen.Validate(); err != nil {
			t.Errorf("%s: invalid generator: %v", s.Name, err)
		}
	}
	if Fig8Setting(0).ILPTimeLimit == 0 {
		t.Error("Fig8 default time limit missing")
	}
	if got := Fig8Setting(5 * time.Second).ILPTimeLimit; got != 5*time.Second {
		t.Errorf("Fig8 explicit limit = %v", got)
	}
}

// TestSweepContextCancellation: a cancelled sweep stops early instead of
// running the full campaign.
func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweepContext(ctx, quickFig3()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
