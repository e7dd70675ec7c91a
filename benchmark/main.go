// Command gocad-bench is the repository benchmark. It runs one workload
// in its own process for a fixed time, checks every output, and prints
// each metric by name with its unit; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	bash benchmark/run.sh --workload mr-local --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload gen-al --trace 1 --spans spans.json
//	bash benchmark/run.sh compare set-a.jsonl set-b.jsonl
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
// --out appends the run's result record (header plus metrics) to a
// JSON-lines file; compare reads two such files. README.md describes the
// workloads, every metric and the layer tree.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 1999

// forks is how many fresh processes an untraced run measures in, one
// after another, each for an equal share of the run. Run-to-run spread
// is mostly between processes (heap layout and GC phasing settle
// differently in each), so pooling several processes' operations keeps
// the medians steady; each process also gives one set-up sample.
const forks = 10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	// The yardstick runs first, before the set-up clock starts and while
	// no workload code can run beside it.
	yardNS := timeYard()
	os.Exit(cli(os.Args[1:], time.Now(), yardNS))
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric in BENCHMARK.json order. An
// untraced run prints endToEnd, a traced run perLayer; a layer the
// workload does not exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p10", "ms"},
	{"peak_rss_mb", "MB"},
}

// The median, the tail and the throughput are per-layer: on a shared
// host they move with the host's load (see README.md, Calibration).
var perLayer = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"core.session_ms", "ms"},
	{"core.real_ms", "ms"},
	{"core.cpu_ms", "ms"},
	{"core.sim_ms", "ms"},
	{"core.drain_ms", "ms"},
	{"core.blocked_ms", "ms"},
	{"estim.batches", "count"},
	{"estim.patterns_per_batch", "count"},
	{"rmi.calls", "count"},
	{"rmi.bytes", "B"},
	{"rmi.wire_ms", "ms"},
	{"rmi.call_us_p50", "us"},
	{"rmi.call_us_p99", "us"},
	{"rmi.wire_us_p50", "us"},
	{"rmi.wire_us_p99", "us"},
	{"rmi.handshake_us_p50", "us"},
	{"rmi.failed_attempts", "count"},
	{"netsim.wait_ms", "ms"},
	{"provider.dispatch_ms", "ms"},
	{"provider.eval_us_p50", "us"},
	{"provider.power_batch_us_p50", "us"},
	{"provider.bind_us_p50", "us"},
	{"gateway.admit_us_p50", "us"},
	{"gateway.before_call_us_p50", "us"},
	{"gateway.after_call_us_p50", "us"},
	{"gateway.session_close_us_p50", "us"},
	{"gateway.ledger_appends", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.max_queue", "count"},
	{"fault.design_ms", "ms"},
	{"fault.table_calls", "count"},
	{"fault.table_ms", "ms"},
	{"fault.table_distinct_frac", "ratio"},
	{"fault.fault_free_runs", "count"},
	{"fault.injection_runs", "count"},
	{"fault.sim_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"proc.cpu_ms_per_op", "ms"},
	{"gen.late_us_p99", "us"},
	{"trace.overhead_pct", "%"},
}

// workload is one prepared set of generated inputs whose cold first
// operation has already run.
type workload interface {
	// fingerprint digests the cold operation's outputs; every later
	// operation must reproduce it.
	fingerprint() string
	// checkCold verifies the cold operation against an independent
	// reference or, at the default seed, the committed golden value.
	checkCold(seed int64) error
	// run measures operations until lim; tr is nil on untraced runs.
	run(lim limits, tr *tracer) *measurement
	close() error
}

// spec describes one workload: the sizes it generates, for the result
// header, and how to build its inputs and run the cold operation.
// hostBound marks a workload whose time is CPU work, which slows with the
// host; its set-up and operation times are reported at the nominal host
// speed (see yardstick.go). The others spend most of their time in
// emulated network waits, which do not slow with the host, and report
// their times as measured.
type spec struct {
	sizes     string
	prepare   func(seed int64, tmp string, traced bool) (workload, error)
	hostBound bool
}

var specs = map[string]spec{
	"mr-local":    {mrLocalSizes, prepareMRLocal, false},
	"er-wan":      {erWANSizes, prepareERWAN, false},
	"gen-al":      {genSizes, prepareGen, true},
	"fault-2ip":   {faultSizes, prepareFault, true},
	"gw-sessions": {gwSizes, prepareGateway, true},
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spans    string // traced runs write their spans here when set
	out      string // result record file (JSON lines), appended when set
	tmp      string // scratch directory root
	forks    int    // measuring processes of an untraced run; 0 measures in this one
	maxOps   int    // operation cap; 0 runs for the whole duration
}

// cli runs one workload; mainStart is when its set-up began and yardNS
// the yardstick times the process took just before.
func cli(args []string, mainStart time.Time, yardNS []float64) int {
	fs := flag.NewFlagSet("gocad-bench", flag.ContinueOnError)
	o := options{forks: forks}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1, write the spans as JSON to this file")
	fs.StringVar(&o.out, "out", "", "append the result record to this JSON-lines file (see compare)")
	fs.StringVar(&o.tmp, "tmp", ".bench_build", "directory for scratch files such as the billing ledger")
	forkMS := fs.Int("fork-ms", 0, "measure for this many milliseconds as one of a run's measuring processes (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := specs[o.workload]; !ok || *trace < 0 || *trace > 1 || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "gocad-bench: need --workload (%s), --trace 0|1 and --seconds >= 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.traced = *trace == 1
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gocad-bench:", err)
		return 1
	}
	if *forkMS > 0 {
		return fork(o, time.Duration(*forkMS)*time.Millisecond, mainStart, yardNS)
	}
	res, err := bench(o, os.Stdout, mainStart, yardNS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gocad-bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gocad-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of an --out file: the header, then the result.
type record struct {
	Header header `json:"header"`
	result
}

// header identifies the machine, the code and the inputs of a run.
type header struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Sizes      string `json:"sizes"`
	Traced     bool   `json:"traced"`
}

// sameMachineAndSize reports why two headers' runs cannot be compared:
// different hardware or runtime, or different run length or inputs.
func (h header) sameMachineAndSize(o header) error {
	switch {
	case h.GOOS != o.GOOS || h.GOARCH != o.GOARCH || h.CPU != o.CPU || h.NProc != o.NProc || h.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Errorf("machines differ: %s/%s %q nproc=%d GOMAXPROCS=%d vs %s/%s %q nproc=%d GOMAXPROCS=%d",
			h.GOOS, h.GOARCH, h.CPU, h.NProc, h.GOMAXPROCS, o.GOOS, o.GOARCH, o.CPU, o.NProc, o.GOMAXPROCS)
	case h.Seconds != o.Seconds || h.Sizes != o.Sizes:
		return fmt.Errorf("%s: run sizes differ: %ds %q vs %ds %q", h.Workload, h.Seconds, h.Sizes, o.Seconds, o.Sizes)
	}
	return nil
}

func newHeader(o options) header {
	return header{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Sizes:      specs[o.workload].sizes,
		Traced:     o.traced,
	}
}

// bench prepares the workload, measures set-up and the loop, and
// returns the result; progress and human-readable lines go to w. yardNS
// are the yardstick times taken just before mainStart.
func bench(o options, w io.Writer, mainStart time.Time, yardNS []float64) (result, error) {
	wl, err := specs[o.workload].prepare(o.seed, o.tmp, o.traced)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	starts := []procStart{{time.Since(mainStart), yardNS}}
	h := newHeader(o)
	hj, err := json.Marshal(h)
	if err != nil {
		return result{}, errors.Join(err, wl.close())
	}
	fmt.Fprintf(w, "# header %s\n", hj)
	coldErr := wl.checkCold(o.seed)
	if coldErr != nil {
		fmt.Fprintf(w, "# FAIL cold operation: %v\n", coldErr)
	}

	var m *measurement
	var tr *tracer
	if o.traced || o.forks == 0 {
		if o.traced {
			tr = newTracer()
		}
		m = wl.run(limits{d: time.Duration(o.seconds) * time.Second, maxOps: o.maxOps}, tr)
		if err := wl.close(); err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
	} else {
		cold := wl.fingerprint()
		if err := wl.close(); err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
		// The measuring processes' set-ups stand for this one's.
		if m, starts, err = measureForks(o, cold); err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
	}
	if m.firstErr != nil {
		fmt.Fprintf(w, "# FAIL %d of %d operations; first: %v\n", m.failed, m.attempted, m.firstErr)
	}
	res := result{
		Correct:   coldErr == nil && m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted + 1, // the cold operation counts
		Failed:    m.failed,
		Metrics:   make(map[string]value),
	}
	if coldErr != nil {
		res.Failed++
	}
	if o.traced {
		m.layers["op_ms_p50"] = median(millis(m.lat))
		m.layers["op_ms_p90"] = percentile(millis(m.lat), 0.9)
		m.layers["ops_per_s"] = float64(m.completed) / m.loopTime.Seconds()
		for _, d := range perLayer {
			res.Metrics[d.name] = value{m.layers[d.name], d.unit}
		}
		for _, line := range append(m.notes, selfTimeLines(tr, len(m.tracedLat))...) {
			fmt.Fprintln(w, line)
		}
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				return result{}, err
			}
		}
	} else {
		// Each set-up is scaled by the host speed its process measured
		// first thing; each operation by the yardstick sample after it.
		hostBound := specs[o.workload].hostBound
		var setup, startSlow []float64
		for _, p := range starts {
			hs := hostSpeed(p.yardNS)
			d := p.setup
			if hostBound {
				d = atNominal(d, hs)
			}
			setup = append(setup, d.Seconds())
			startSlow = append(startSlow, float64(hs)/float64(yardstickNominal))
		}
		raw := millis(m.lat)
		lat := raw
		slow := make([]float64, len(m.yard))
		for i, y := range m.yard {
			slow[i] = float64(y) / float64(yardstickNominal)
		}
		if hostBound {
			lat = make([]float64, len(m.lat))
			for i, d := range m.lat {
				lat[i] = ms(atNominal(d, m.yard[i]))
			}
		}
		res.Metrics["setup_s"] = value{median(setup), "s"}
		res.Metrics["op_ms_p10"] = value{percentile(lat, 0.1), "ms"}
		res.Metrics["peak_rss_mb"] = value{m.rssMB, "MB"}
		fmt.Fprintf(w, "# host slowdown (yardstick time / nominal) at process start %.3f\n", startSlow)
		fmt.Fprintf(w, "# host slowdown after the operations: p10 %.4f p50 %.4f p90 %.4f\n",
			percentile(slow, 0.1), median(slow), percentile(slow, 0.9))
		fmt.Fprintf(w, "# set-up samples %.6f s\n", setup)
		fmt.Fprintf(w, "# %d timed operations, op_ms as measured: p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f\n", len(raw),
			percentile(raw, 0.1), percentile(raw, 0.25), median(raw), percentile(raw, 0.75), percentile(raw, 0.9))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if o.out != "" {
		if err := appendRecord(o.out, record{Header: h, result: res}); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// procStart is one process's set-up time and the yardstick times it took
// just before its set-up began.
type procStart struct {
	setup  time.Duration
	yardNS []float64
}

// forkReport is what one measuring process prints as its last line.
type forkReport struct {
	SetupNS     int64     `json:"setup_ns"`
	StartYardNS []float64 `json:"start_yard_ns"`
	Cold        string    `json:"cold"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Err         string    `json:"err,omitempty"`
	LatNS       []int64   `json:"lat_ns"`
	YardNS      []int64   `json:"yard_ns"` // the yardstick sample after each latency
	Completed   int       `json:"completed"`
	LoopNS      int64     `json:"loop_ns"`
	RSSMB       float64   `json:"rss_mb"`
}

// fork is the body of one measuring process: set up, measure untraced
// for d, and report.
func fork(o options, d time.Duration, mainStart time.Time, yardNS []float64) int {
	wl, err := specs[o.workload].prepare(o.seed, o.tmp, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gocad-bench: %s: set-up: %v\n", o.workload, err)
		return 1
	}
	rep := forkReport{SetupNS: int64(time.Since(mainStart)), StartYardNS: yardNS, Cold: wl.fingerprint()}
	m := wl.run(limits{d: d}, nil)
	if err := wl.close(); err != nil {
		m.fail(err)
	}
	rep.Attempted, rep.Failed = m.attempted, m.failed
	if m.firstErr != nil {
		rep.Err = m.firstErr.Error()
	}
	for i, l := range m.lat {
		rep.LatNS = append(rep.LatNS, int64(l))
		rep.YardNS = append(rep.YardNS, int64(m.yard[i]))
	}
	rep.Completed, rep.LoopNS, rep.RSSMB = m.completed, int64(m.loopTime), m.rssMB
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gocad-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measureForks runs the measured loop in o.forks fresh processes, one
// after another, each for an equal share of the run, and pools what they
// measured. It also returns each process's set-up.
func measureForks(o options, cold string) (*measurement, []procStart, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	share := time.Duration(o.seconds) * time.Second / time.Duration(o.forks)
	m := newMeasurement()
	var starts []procStart
	var rss []float64
	for i := 0; i < o.forks; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
			"--tmp", o.tmp, "--fork-ms", strconv.FormatInt(share.Milliseconds(), 10))
		cmd.Stderr = os.Stderr
		// A measuring process never outlives the run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		var rep forkReport
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return nil, nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		starts = append(starts, procStart{time.Duration(rep.SetupNS), rep.StartYardNS})
		rss = append(rss, rep.RSSMB)
		m.attempted += rep.Attempted
		m.failed += rep.Failed
		if rep.Err != "" && m.firstErr == nil {
			m.firstErr = errors.New(rep.Err)
		}
		if rep.Cold != cold {
			m.fail(fmt.Errorf("measuring process %d: cold fingerprint %s differs from %s", i, rep.Cold, cold))
		}
		if len(rep.YardNS) != len(rep.LatNS) {
			return nil, nil, fmt.Errorf("measuring process %d: %d yardstick samples for %d latencies", i, len(rep.YardNS), len(rep.LatNS))
		}
		for j, ns := range rep.LatNS {
			m.lat = append(m.lat, time.Duration(ns))
			m.yard = append(m.yard, time.Duration(rep.YardNS[j]))
		}
		m.completed += rep.Completed
		m.loopTime += time.Duration(rep.LoopNS)
	}
	m.rssMB = median(rss)
	return m, starts, nil
}

// selfTimeLines renders the traced run's self time per span name, per
// traced operation.
func selfTimeLines(tr *tracer, ops int) []string {
	if ops == 0 {
		return nil
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("# self time per traced operation (%d operations)", ops)}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("#   %-28s %12.4f ms", n, float64(self[n])/float64(time.Millisecond)/float64(ops)))
	}
	return lines
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision stamped into the
// binary, else git's HEAD when run inside a work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares a cold operation's fingerprint with the committed
// golden value; only the default seed has one.
func checkGolden(workload string, seed int64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if want := golden[workload]; got != want {
		return fmt.Errorf("fingerprint %s, golden.json has %q", got, want)
	}
	return nil
}
