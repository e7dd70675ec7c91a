package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for a few operations, untraced and
// traced, with every output check, and expects each metric the contract
// names to be printed (end-to-end ones never 0).
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				o := options{workload: name, seed: defaultSeed, seconds: 60, traced: traced,
					tmp: dir, maxOps: 3, spans: filepath.Join(dir, "spans.json"), out: filepath.Join(dir, "out.jsonl")}
				if name == "gw-sessions" {
					o.maxOps = 20 // sessions per phase
				}
				res, err := bench(o, io.Discard, time.Now(), timeYard())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok || v.Unit != d.unit:
						t.Errorf("metric %s = %+v, want unit %s", d.name, v, d.unit)
					case !traced && !(v.Value > 0):
						t.Errorf("end-to-end metric %s = %v", d.name, v.Value)
					}
				}
				recs, err := readRecords(o.out)
				if err != nil || len(recs) != 1 || recs[0].Header.Workload != name || recs[0].Header.Traced != traced {
					t.Fatalf("result file: %v %+v", err, recs)
				}
				if traced {
					if _, err := os.Stat(o.spans); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestCommand builds the command and runs it as the benchmark contract
// does: an untraced run measures in forked processes and ends its output
// with the result line; bad flags exit 2 without one.
func TestCommand(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "gocad-bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(exe, "--workload", "gen-al", "--seed", "3", "--seconds", "1", "--trace", "0", "--tmp", dir)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	// The cold operation, then at least one operation per measuring process.
	if res.Attempted < 1+forks {
		t.Errorf("%d operations attempted across %d processes", res.Attempted, forks)
	}
	bad := exec.Command(exe, "--workload", "no-such-workload")
	if out, err := bad.Output(); bad.ProcessState.ExitCode() != 2 || len(out) != 0 {
		t.Errorf("bad workload: exit %d, err %v, output %q", bad.ProcessState.ExitCode(), err, out)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, command has %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, command prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, command prints %v", layer, perLayer)
	}
}

// TestYardstick checks that a yardstick sample allocates nothing, so it
// neither moves nor is moved by the garbage collector's pacing, and that
// times scale to the nominal host speed in proportion to the slowdown.
func TestYardstick(t *testing.T) {
	if ts := timeYard(); len(ts) != yardSamples || hostSpeed(ts) <= 0 {
		t.Errorf("yardstick times %v", ts)
	}
	y := newYardstick()
	if n := testing.AllocsPerRun(20, func() { y.sample() }); n != 0 {
		t.Errorf("a yardstick sample allocates %v objects", n)
	}
	if got := atNominal(30*time.Millisecond, 2*yardstickNominal); got != 15*time.Millisecond {
		t.Errorf("30 ms at twice the nominal yardstick time = %v, want 15ms", got)
	}
	if got := atNominal(30*time.Millisecond, 0); got != 30*time.Millisecond {
		t.Errorf("30 ms with no host speed = %v, want it unchanged", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.3, 20}, {0.4, 20}, {0.5, 35}, {0.9, 50}, {1, 50},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestMannWhitney checks the U test against p-values worked out by hand:
// exact ones from counting orderings, and one with ties from the normal
// approximation with tie and continuity corrections.
func TestMannWhitney(t *testing.T) {
	for _, c := range []struct {
		a, b []float64
		want float64
	}{
		// U = 0; one of C(6,3) = 20 orderings per tail.
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 2.0 / 20},
		{[]float64{4, 5, 6}, []float64{1, 2, 3}, 2.0 / 20},
		// U = 0; one of C(10,5) = 252 orderings per tail.
		{[]float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10}, 2.0 / 252},
		// U = 1: orderings with U <= 1 are 2 of 20.
		{[]float64{1, 2, 4}, []float64{3, 5, 6}, 4.0 / 20},
		// Ties: R1 = 1+3+3 = 7, U = 1, mean 4.5, sigma^2 = 9/12*(7-24/30)
		// = 4.65, z = (3.5-0.5)/2.15639 = 1.39122, p = 0.16416.
		{[]float64{1, 2, 2}, []float64{2, 3, 4}, 0.16416},
		// Identical samples never separate.
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 1},
	} {
		if got := mannWhitneyP(c.a, c.b); math.Abs(got-c.want) > 5e-5 {
			t.Errorf("mannWhitneyP(%v, %v) = %.5f, want %.5f", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	rules := map[string]metricRule{
		"op_ms_p50":  {better: "lower", bound: 0.05, order: 0},
		"ops_per_s":  {better: "higher", bound: 0.05, order: 1},
		"sim.events": {better: "lower", bound: math.NaN(), order: 2},
	}
	h := header{GOOS: "linux", GOARCH: "amd64", CPU: "x", NProc: 2, GOMAXPROCS: 2, Workload: "gen-al", Seconds: 20, Sizes: "s"}
	set := func(scale float64, metric string) []record {
		var out []record
		for i := 0; i < 6; i++ {
			out = append(out, record{Header: h, result: result{Correct: true, Metrics: map[string]value{
				metric: {scale * (10 + 0.01*float64(i)), "x"},
			}}})
		}
		return out
	}
	verdictOf := func(a, b []record) string {
		rows, err := compareSets(a, b, rules)
		if err != nil || len(rows) != 1 {
			t.Fatalf("compareSets: %v %v", rows, err)
		}
		return rows[0].verdict
	}
	for _, c := range []struct {
		metric string
		scale  float64
		want   string
	}{
		{"op_ms_p50", 1, "ok"},
		{"op_ms_p50", 1.5, "REGRESSION"},
		{"op_ms_p50", 0.5, "improved"},
		{"op_ms_p50", 1.02, "ok"},
		{"ops_per_s", 0.5, "REGRESSION"},
		{"ops_per_s", 1.5, "improved"},
		{"sim.events", 2, "-"},
	} {
		if got := verdictOf(set(1, c.metric), set(c.scale, c.metric)); got != c.want {
			t.Errorf("%s x%v: verdict %s, want %s", c.metric, c.scale, got, c.want)
		}
	}
	other := set(1, "op_ms_p50")
	other[0].Header.NProc = 4
	if _, err := compareSets(set(1, "op_ms_p50"), other, rules); err == nil || !strings.Contains(err.Error(), "machines differ") {
		t.Errorf("different machines compared: %v", err)
	}
	other = set(1, "op_ms_p50")
	other[2].Header.Seconds = 10
	if _, err := compareSets(set(1, "op_ms_p50"), other, rules); err == nil || !strings.Contains(err.Error(), "sizes differ") {
		t.Errorf("different run sizes compared: %v", err)
	}
}
