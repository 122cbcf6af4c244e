package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type bound struct {
	better string
	share  float64 // 0: no bound (a per-layer metric)
}

func readBounds(path string) (map[string]bound, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(body, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	for _, m := range bf.PerLayer {
		out[m.Name] = bound{better: m.Better}
	}
	return out, nil
}

type seriesKey struct {
	workload, metric string
}

// readRuns groups a result file's runs by (workload, metric). Lines that
// are not run records are skipped.
func readRuns(path string) (map[seriesKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[seriesKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || !rec.Correct {
			continue
		}
		for name, m := range rec.Metrics {
			k := seriesKey{rec.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// verdict compares side B with side A. A metric is unresolved when
// either side's spread exceeds its bound, worse when B's median is worse
// by more than the bound, better when it is better by more than A's own
// spread, and within bound otherwise.
func verdict(qa, qb [3]float64, b bound) string {
	if b.share == 0 || qa[1] == 0 {
		return "-"
	}
	if spread(qa) > b.share || spread(qb) > b.share {
		return "unresolved"
	}
	worse := (qb[1] - qa[1]) / math.Abs(qa[1])
	if b.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > b.share:
		return "worse"
	case -worse > spread(qa):
		return "better"
	}
	return "within bound"
}

// compareFiles prints each side's median and quartiles per (workload,
// metric) and the verdict under the bounds in benchPath.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) error {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	var keys []seriesKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("%s and %s share no (workload, metric) series", pathA, pathB)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	for _, k := range keys {
		qa, qb := quartiles(a[k]), quartiles(b[k])
		bd := bounds[k.metric]
		change := "-"
		if qa[1] != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(qb[1]-qa[1])/math.Abs(qa[1]))
		}
		limit := "-"
		if bd.share > 0 {
			limit = fmt.Sprintf("%.0f%%", 100*bd.share)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\n",
			k.workload, k.metric, qa[1], qa[0], qa[2], len(a[k]), qb[1], qb[0], qb[2], len(b[k]),
			change, limit, verdict(qa, qb, bd))
	}
	return tw.Flush()
}
