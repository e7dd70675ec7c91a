// Command gocad-lint runs the project's custom static-analysis suite —
// the machine-checked form of the invariants DESIGN.md §8 and §13
// document: simulation determinism, history release, no RMI under
// locks, no discarded remote errors, the downloaded-part capability
// sandbox, wire-codec symmetry, and the //gocad:noalloc hot-path
// allocation gate.
//
// Usage:
//
//	gocad-lint [packages]
//
// Packages default to ./... relative to the current directory. Every
// analyzer shares one `go list -export` load of the package graph. The
// command prints one line per finding (file:line:col: message [analyzer])
// and exits 1 if anything was found, 2 on operational failure. With
// -timings it also prints the load time and each analyzer's cumulative
// wall time to stderr, so CI surfaces where the lint budget goes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/registry"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	dir := flag.String("C", ".", "change to `dir` before loading packages")
	timings := flag.Bool("timings", false, "print package-load and per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gocad-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the gocad static-analysis suite (see DESIGN.md §8 and §13).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loadStart := time.Now()
	pkgs, err := lint.Load(*dir, patterns...)
	loadTime := time.Since(loadStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gocad-lint: %v\n", err)
		os.Exit(2)
	}
	diags, perAnalyzer, err := lint.RunAnalyzersTimed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gocad-lint: %v\n", err)
		os.Exit(2)
	}
	if *timings {
		fmt.Fprintf(os.Stderr, "gocad-lint: loaded %d packages in %v (one shared go list -export pass)\n",
			len(pkgs), loadTime.Round(time.Millisecond))
		for _, tm := range perAnalyzer {
			fmt.Fprintf(os.Stderr, "gocad-lint: %-16s %8v\n", tm.Analyzer, tm.Elapsed.Round(time.Millisecond))
		}
	}
	for _, d := range diags {
		fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gocad-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
