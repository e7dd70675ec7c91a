// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	experiments -table1    estimator accuracy/cost/speed comparison
//	experiments -table2    CPU and real time for AL/ER/MR × local/LAN/WAN
//	experiments -figure3   real and CPU time vs pattern buffer size
//	experiments -figure4   virtual fault simulation worked example
//	experiments -all       everything
//
// Scale flags (-width, -patterns, -buffer) default to the paper's
// parameters (16-bit multiplier, 100 random patterns, buffer 5).
// Transport knobs: -inflight bounds RMI pipelining (1 = stop-and-wait
// baseline) and -est-cache shares a content-addressed estimation cache
// across Table 2 rows and Figure 3 sweep points so repeat batches skip
// the wire; results are bit-identical either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the Table 1 estimator comparison")
		table2   = flag.Bool("table2", false, "run the Table 2 scenario grid")
		figure3  = flag.Bool("figure3", false, "run the Figure 3 buffer-size sweep")
		figure4  = flag.Bool("figure4", false, "run the Figure 4 fault-simulation example")
		all      = flag.Bool("all", false, "run every experiment")
		width    = flag.Int("width", 16, "multiplier operand width")
		patterns = flag.Int("patterns", 100, "number of random input patterns")
		buffer   = flag.Int("buffer", 5, "remote-estimation pattern buffer size")
		workers  = flag.Int("workers", 0, "worker pool size for experiment fan-out (0 = one per CPU, 1 = serial)")
		inflight = flag.Int("inflight", 0, "max pipelined RMI calls in flight (0 = default, 1 = stop-and-wait)")
		estcache = flag.Bool("est-cache", false, "share a content-addressed estimation cache across runs (quantifies repeat-batch savings)")
	)
	flag.Parse()
	if !(*table1 || *table2 || *figure3 || *figure4 || *all) {
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*table1, *table2, *figure3, *figure4 = true, true, true, true
	}
	var cache *core.EstimationCache
	if *estcache {
		// One cache across every run: later rows and sweep points replay
		// the pattern histories of earlier ones, so the shared cache
		// shows the steady-state hit rate a long session would see.
		cache = core.NewEstimationCache()
	}
	if *table1 {
		runTable1(*width)
	}
	if *table2 {
		runTable2(*width, *patterns, *buffer, *workers, *inflight, cache)
	}
	if *figure3 {
		runFigure3(*width, *patterns, *workers, *inflight, cache)
	}
	if *figure4 {
		runFigure4()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func runTable1(width int) {
	cfg := core.DefaultTable1Config()
	cfg.Width = width
	rows, err := core.RunTable1(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Table 1 — power estimators for the %d-bit MULT (%d train / %d eval patterns)\n",
		cfg.Width, cfg.Train, cfg.Evaluate)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "estimator\tavg err %\trms err %\tcost/pattern (¢)\tCPU/pattern\tremote")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.2f\t%v\t%v\n",
			r.Estimator, r.AvgErrPct, r.RMSErrPct, r.CostPerPatternCents, r.CPUPerPattern, r.Remote)
	}
	w.Flush()
	fmt.Println()
}

func runTable2(width, patterns, buffer, workers, inflight int, cache *core.EstimationCache) {
	cfg := core.DefaultConfig()
	cfg.Width = width
	cfg.Patterns = patterns
	cfg.BufferSize = buffer
	cfg.Workers = workers
	cfg.InFlight = inflight
	cfg.Cache = cache
	rows, err := core.RunTable2(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Table 2 — %d random patterns, buffer %d, %d-bit MULT\n", patterns, buffer, width)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "design\thost\tCPU time\treal time\tRMI calls\tbytes\tfees (¢)")
	for _, r := range rows {
		host := r.Host
		if host == "none" {
			host = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%d\t%d\t%.1f\n",
			scenarioName(r), host, r.CPUTime.Round(10e3), r.RealTime.Round(10e3), r.Calls, r.Bytes, r.FeesCents)
	}
	w.Flush()
	printCache(cache)
	fmt.Println()
}

// printCache summarizes a shared estimation cache after an experiment.
func printCache(cache *core.EstimationCache) {
	if cache == nil {
		return
	}
	hits, misses := cache.Hits(), cache.Misses()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("estimation cache: %d hits / %d lookups (%.0f%% hit rate), %d request bytes saved\n",
		hits, hits+misses, 100*rate, cache.BytesSaved())
}

func scenarioName(r *core.Result) string {
	switch r.Scenario {
	case core.AllLocal:
		return "All local"
	case core.EstimatorRemote:
		return "Estimator remote"
	case core.MultiplierRemote:
		return "Multiplier remote"
	}
	return r.Scenario.String()
}

func runFigure3(width, patterns, workers, inflight int, cache *core.EstimationCache) {
	cfg := core.DefaultConfig()
	cfg.Width = width
	cfg.Patterns = patterns
	cfg.Workers = workers
	cfg.InFlight = inflight
	cfg.Cache = cache
	points, err := core.RunFigure3(cfg, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Figure 3 — times vs pattern buffer size (ER, WAN, PPP call disabled; %d patterns)\n", patterns)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "buffer %\tCPU time\treal time\tRMI calls")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%v\t%v\t%d\n", p.BufferPct, p.CPUTime.Round(10e3), p.RealTime.Round(10e3), p.Calls)
	}
	w.Flush()
	printCache(cache)
	fmt.Println()
}

func runFigure4() {
	rep, err := core.RunFigure4()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Figure 4 — virtual fault simulation of the half-adder design with IP block IP1")
	sort.Strings(rep.FaultList)
	fmt.Printf("  IP1 symbolic fault list (%d faults): %s\n",
		len(rep.FaultList), strings.Join(rep.FaultList, ", "))
	fmt.Printf("  detection table for IIP = (1,0): fault-free output %s\n", rep.Table.FaultFree)
	for _, row := range rep.Table.Rows {
		fmt.Printf("    faulty output %s: {%s}\n", row.Output, strings.Join(row.Faults, ", "))
	}
	sort.Strings(rep.Detected1100)
	sort.Strings(rep.Detected1101)
	fmt.Printf("  pattern ABCD=1100 detects: %s\n", orNone(rep.Detected1100))
	fmt.Printf("  pattern ABCD=1101 detects: %s\n", orNone(rep.Detected1101))
	fmt.Printf("  coverage after both patterns: %.1f%%\n\n", 100*rep.CoverageAfter2)
}

func orNone(fs []string) string {
	if len(fs) == 0 {
		return "(none)"
	}
	return strings.Join(fs, ", ")
}
