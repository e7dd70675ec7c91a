// Command gocad-fault runs virtual fault simulation from the command
// line: it builds a design containing an IP component (the paper's
// Figure 4 circuit, or a randomized IP-based design), runs the two-phase
// protocol over random or exhaustive patterns, prints per-pattern
// detections and the coverage curve, and cross-checks the result against
// full-disclosure serial simulation of the flattened design.
//
//	gocad-fault -design fig4 -patterns exhaustive
//	gocad-fault -design random -seed 7 -gates 25 -count 40 -check
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/signal"
)

func main() {
	var (
		designKind = flag.String("design", "fig4", "design to simulate: fig4 | random")
		seed       = flag.Int64("seed", 1, "random-design and random-pattern seed")
		gates      = flag.Int("gates", 20, "IP component gate count (random design)")
		patterns   = flag.String("patterns", "exhaustive", "pattern source: exhaustive | random")
		count      = flag.Int("count", 32, "number of random patterns")
		check      = flag.Bool("check", false, "cross-check against the flattened full-disclosure reference")
		vcurve     = flag.Bool("curve", true, "print the cumulative coverage curve")
		workers    = flag.Int("workers", 0, "worker pool size for the -check flat reference (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()

	var (
		d   *fault.IPDesign
		err error
	)
	switch *designKind {
	case "fig4":
		d, err = fault.Figure4Design()
	case "random":
		d, err = fault.RandomIPDesign(*gates, *seed)
	default:
		fatal(fmt.Errorf("unknown design %q", *designKind))
	}
	if err != nil {
		fatal(err)
	}
	nIn := len(d.Inputs)

	var tests [][]signal.Bit
	switch *patterns {
	case "exhaustive":
		if nIn > 16 {
			fatal(fmt.Errorf("%d inputs too many for exhaustive patterns", nIn))
		}
		for v := uint64(0); v < 1<<uint(nIn); v++ {
			tests = append(tests, bitsOf(v, nIn))
		}
	case "random":
		r := rand.New(rand.NewSource(*seed))
		for i := 0; i < *count; i++ {
			tests = append(tests, bitsOf(r.Uint64(), nIn))
		}
	default:
		fatal(fmt.Errorf("unknown pattern source %q", *patterns))
	}

	vs := d.NewVirtual()
	list, err := vs.BuildFaultList()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("design %q: %d primary inputs, %d IP hosts, %d symbolic faults\n",
		*designKind, nIn, len(d.Hosts), len(list))

	res, err := vs.Run(tests)
	if err != nil {
		fatal(err)
	}
	for i, fs := range res.PerPattern {
		if len(fs) == 0 {
			continue
		}
		sort.Strings(fs)
		fmt.Printf("  pattern %3d detects %s\n", i, strings.Join(fs, ", "))
	}
	fmt.Printf("coverage: %.1f%% (%d/%d) over %d patterns\n",
		100*res.Coverage(), len(res.Detected), res.Total, len(tests))
	fmt.Printf("protocol work: %d fault-free runs, %d table queries, %d injections\n",
		vs.Stats.FaultFreeRuns, vs.Stats.DetectionTableCalls, vs.Stats.InjectionRuns)
	if *vcurve {
		fmt.Print("coverage curve:")
		for _, c := range res.CoverageCurve() {
			fmt.Printf(" %.2f", c)
		}
		fmt.Println()
	}

	if *check {
		flatFaults := make([]gate.Fault, 0, len(list))
		for _, q := range list {
			ff, err := d.FlatFaultFor(q)
			if err != nil {
				fatal(err)
			}
			flatFaults = append(flatFaults, ff)
		}
		ref, err := fault.SerialSimulateFaultsWorkers(d.Flat, flatFaults, tests, *workers)
		if err != nil {
			fatal(err)
		}
		mismatches := 0
		for _, q := range list {
			vp, vok := res.Detected[q]
			fp, fok := ref.Detected[q]
			if vok != fok || (vok && vp != fp) {
				mismatches++
				fmt.Printf("  MISMATCH %s: virtual (%v,%d) flat (%v,%d)\n", q, vok, vp, fok, fp)
			}
		}
		if mismatches == 0 {
			fmt.Printf("cross-check PASSED: virtual == full-disclosure flat reference (%d faults)\n", len(list))
		} else {
			fatal(fmt.Errorf("%d mismatches against the flat reference", mismatches))
		}
	}
}

func bitsOf(v uint64, n int) []signal.Bit {
	out := make([]signal.Bit, n)
	for i := 0; i < n; i++ {
		if v&(1<<uint(i)) != 0 {
			out[i] = signal.B1
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocad-fault:", err)
	os.Exit(1)
}
