// Command experiments regenerates the paper's evaluation artifacts:
// Table III (the Section VII illustrating example) and the simulation
// campaigns behind Figures 3-8. Text tables go to stdout; with -outdir,
// CSV files are written per experiment.
//
// Usage:
//
//	experiments -table3                        # Table III
//	experiments -fig3 -fig4 -fig5              # small-graph campaign
//	experiments -fig6 -fig7                    # medium/large campaigns
//	experiments -fig8 -ilp-limit 100s          # ILP stress (paper budget)
//	experiments -all -configs 20 -outdir out/  # everything, scaled down
//
// Figures 3, 4 and 5 share one campaign (normalized cost, best counts and
// timing of the same runs), as in the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rentmin/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		all    = flag.Bool("all", false, "run every experiment")
		table3 = flag.Bool("table3", false, "reproduce Table III")
		fig3   = flag.Bool("fig3", false, "small graphs: normalized cost (Figure 3)")
		fig4   = flag.Bool("fig4", false, "small graphs: best-solution counts (Figure 4)")
		fig5   = flag.Bool("fig5", false, "small graphs: computation time (Figure 5)")
		fig6   = flag.Bool("fig6", false, "medium graphs: normalized cost (Figure 6)")
		fig7   = flag.Bool("fig7", false, "large graphs: normalized cost (Figure 7)")
		fig8   = flag.Bool("fig8", false, "ILP stress: computation time (Figure 8)")
		asym   = flag.Bool("asymptote", false, "extension: H1 asymptotic optimality over doubling targets")

		configs    = flag.Int("configs", 0, "override configurations per setting (paper: 100)")
		ilpLimit   = flag.Duration("ilp-limit", 0, "ILP time budget for fig8 (paper: 100s; default 2s)")
		seed       = flag.Uint64("seed", 0, "override campaign seed")
		workers    = flag.Int("workers", 0, "parallel configurations (0 = GOMAXPROCS)")
		ilpWorkers = flag.Int("ilp-workers", 1, "branch-and-bound workers per ILP solve (1 = sequential, 0 = GOMAXPROCS)")
		targets    = flag.String("targets", "", "override the target sweep, e.g. \"40,80,120\"")
		outdir     = flag.String("outdir", "", "write CSV files to this directory")
	)
	flag.Parse()

	targetList, err := parseTargets(*targets)
	if err != nil {
		log.Fatalf("targets: %v", err)
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatalf("outdir: %v", err)
		}
	}

	if *table3 || *all {
		runTable3(*outdir)
	}

	adjust := func(s experiments.Setting) experiments.Setting {
		if *configs > 0 {
			s.Configs = *configs
		}
		if *seed != 0 {
			s.Seed = *seed
		}
		if *workers != 0 {
			s.Workers = *workers
		}
		switch {
		case *ilpWorkers == 0: // GOMAXPROCS, matching cmd/rentmin -workers
			s.ILPWorkers = -1
		case *ilpWorkers > 1:
			s.ILPWorkers = *ilpWorkers
		} // 1 (the default) keeps the Setting's sequential default
		if len(targetList) > 0 {
			s.Targets = targetList
		}
		return s
	}

	// Figures 3, 4 and 5 come from the same campaign.
	if *fig3 || *fig4 || *fig5 || *all {
		res := runSweep(adjust(experiments.Fig3Setting()), *outdir)
		if *fig3 || *all {
			fmt.Println(res.FormatTable(experiments.MetricNormalized))
		}
		if *fig4 || *all {
			fmt.Println(res.FormatTable(experiments.MetricBestCount))
		}
		if *fig5 || *all {
			fmt.Println(res.FormatTable(experiments.MetricSeconds))
		}
	}
	if *fig6 || *all {
		res := runSweep(adjust(experiments.Fig6Setting()), *outdir)
		fmt.Println(res.FormatTable(experiments.MetricNormalized))
	}
	if *fig7 || *all {
		res := runSweep(adjust(experiments.Fig7Setting()), *outdir)
		fmt.Println(res.FormatTable(experiments.MetricNormalized))
	}
	if *fig8 || *all {
		res := runSweep(adjust(experiments.Fig8Setting(*ilpLimit)), *outdir)
		fmt.Println(res.FormatTable(experiments.MetricSeconds))
	}
	if *asym || *all {
		res := runSweep(adjust(experiments.AsymptoteSetting()), *outdir)
		fmt.Println(res.FormatTable(experiments.MetricNormalized))
	}

	if !*all && !*table3 && !*fig3 && !*fig4 && !*fig5 && !*fig6 && !*fig7 && !*fig8 && !*asym {
		flag.Usage()
		os.Exit(2)
	}
}

func parseTargets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func runTable3(outdir string) {
	start := time.Now()
	rows, err := experiments.RunTable3(7)
	if err != nil {
		log.Fatalf("table3: %v", err)
	}
	fmt.Printf("# Table III — illustrating example (%v)\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(experiments.FormatTable3(rows))
	if outdir != "" {
		path := filepath.Join(outdir, "table3.txt")
		if err := os.WriteFile(path, []byte(experiments.FormatTable3(rows)), 0o644); err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
		log.Printf("wrote %s", path)
	}
}

func runSweep(s experiments.Setting, outdir string) *experiments.SweepResult {
	start := time.Now()
	log.Printf("running %s (%d configs × %d targets)...", s.Name, s.Configs, len(s.Targets))
	res, err := experiments.RunSweep(s)
	if err != nil {
		log.Fatalf("%s: %v", s.Name, err)
	}
	log.Printf("%s finished in %v", s.Name, time.Since(start).Round(time.Millisecond))
	if outdir != "" {
		path := filepath.Join(outdir, s.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("create %s: %v", path, err)
		}
		if err := res.WriteCSV(f); err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close %s: %v", path, err)
		}
		log.Printf("wrote %s", path)
	}
	return res
}
