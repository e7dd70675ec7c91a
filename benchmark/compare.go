package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// metricRule is a metric's direction and, for end-to-end metrics, its
// regression bound from BENCHMARK.json.
type metricRule struct {
	better string  // "lower" or "higher"
	bound  float64 // share of the first set's median; NaN for per-layer metrics
	order  int     // position in BENCHMARK.json
}

// loadRules reads the metric rules from BENCHMARK.json.
func loadRules(path string) (map[string]metricRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
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
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := make(map[string]metricRule)
	for _, m := range doc.EndToEnd {
		rules[m.Name] = metricRule{m.Better, m.Bound, len(rules)}
	}
	for _, m := range doc.PerLayer {
		rules[m.Name] = metricRule{m.Better, math.NaN(), len(rules)}
	}
	return rules, nil
}

// readRecords reads a JSON-lines result file written with --out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is one workload × metric row of a compare report.
type comparison struct {
	workload, metric, unit string
	a, b                   [3]float64 // first quartile, median, third quartile
	na, nb                 int
	delta                  float64 // (median B - median A) / median A
	p                      float64 // two-sided Mann–Whitney U
	bound                  float64
	verdict                string
}

// separated is the p-value below which two sets of runs count as
// different.
const separated = 0.05

// compareSets compares the runs of set b against set a, per workload and
// metric. It refuses sets whose headers differ in machine or run size.
func compareSets(a, b []record, rules map[string]metricRule) ([]comparison, error) {
	first := make(map[string]header)
	for _, r := range append(append([]record(nil), a...), b...) {
		h, ok := first[r.Header.Workload]
		if !ok {
			first[r.Header.Workload] = r.Header
			continue
		}
		if err := h.sameMachineAndSize(r.Header); err != nil {
			return nil, fmt.Errorf("refusing to compare: %w", err)
		}
	}
	values := func(set []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set {
			if v, ok := r.Metrics[metric]; ok && r.Header.Workload == workload {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var workloads []string
	for w := range first {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var metricsByOrder []string
	for name := range rules {
		metricsByOrder = append(metricsByOrder, name)
	}
	sort.Slice(metricsByOrder, func(i, j int) bool {
		return rules[metricsByOrder[i]].order < rules[metricsByOrder[j]].order
	})
	var rows []comparison
	for _, w := range workloads {
		for _, name := range metricsByOrder {
			xa, xb := values(a, w, name), values(b, w, name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{workload: w, metric: name, na: len(xa), nb: len(xb), bound: rules[name].bound}
			for _, r := range a {
				if v, ok := r.Metrics[name]; ok {
					c.unit = v.Unit
				}
			}
			c.a[0], c.a[1], c.a[2] = quartiles(xa)
			c.b[0], c.b[1], c.b[2] = quartiles(xb)
			if c.a[1] != 0 {
				c.delta = (c.b[1] - c.a[1]) / math.Abs(c.a[1])
			}
			c.p = mannWhitneyP(xa, xb)
			c.verdict = verdict(c, rules[name].better)
			rows = append(rows, c)
		}
	}
	return rows, nil
}

// verdict judges one row against its bound. A difference is flagged only
// when the medians differ by more than the bound and the two sets of
// runs separate; a metric whose own spread exceeds the bound is
// unresolved rather than unchanged.
func verdict(c comparison, better string) string {
	if math.IsNaN(c.bound) {
		return "-"
	}
	worse, improved := c.delta > c.bound, c.delta < -c.bound
	if better == "higher" {
		worse, improved = improved, worse
	}
	switch {
	case worse && c.p < separated:
		return "REGRESSION"
	case improved && c.p < separated:
		return "improved"
	case spread(c.a) > c.bound || spread(c.b) > c.bound:
		return "unresolved"
	}
	return "ok"
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// compareCmd implements `compare [-bench BENCHMARK.json] A.jsonl B.jsonl`.
// It exits 1 when any end-to-end metric regressed or set B failed more
// operations than set A, and 2 when the sets cannot be compared.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchJSON := fs.String("bench", "", "BENCHMARK.json with the bounds (default ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: gocad-bench compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	path := *benchJSON
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			path = "../BENCHMARK.json"
		}
	}
	rules, err := loadRules(path)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	rows, err := compareSets(a, b, rules)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tp\tbound\tverdict")
	status := 0
	for _, c := range rows {
		bound := "-"
		if !math.IsNaN(c.bound) {
			bound = fmt.Sprintf("%.1f%%", 100*c.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.3f\t%s\t%s\n",
			c.workload, c.metric, c.unit, c.a[1], c.a[0], c.a[2], c.na, c.b[1], c.b[0], c.b[2], c.nb,
			100*c.delta, c.p, bound, c.verdict)
		if c.verdict == "REGRESSION" {
			status = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	fa, fb := failures(a), failures(b)
	for w, n := range fb {
		if n > fa[w] {
			fmt.Fprintf(stdout, "%s: set B failed %d operations, set A %d\n", w, n, fa[w])
			status = 1
		}
	}
	return status
}

// failures sums failed operations per workload.
func failures(set []record) map[string]int {
	out := make(map[string]int)
	for _, r := range set {
		out[r.Header.Workload] += r.Failed
	}
	return out
}
