package fault

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenTables = "testdata/golden/detection_tables.txt"

// goldenCorpus renders the provider's fault answers for a fixed set of
// components: the detection table of every input configuration in
// {0,1,X}ⁿ for Figure 4's IP1 and both components of four seeded two-IP
// designs, then the ATPG test sets of two seeded netlists. Any change to
// how tables or test sets are computed must leave this text unchanged.
func goldenCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tables := func(label string, svc TestabilityService, nIn int) {
		in := make([]signal.Bit, nIn)
		levels := [...]signal.Bit{signal.B0, signal.B1, signal.BX}
		total := 1
		for i := 0; i < nIn; i++ {
			total *= len(levels)
		}
		for c := 0; c < total; c++ {
			for i, v := 0, c; i < nIn; i, v = i+1, v/len(levels) {
				in[i] = levels[v%len(levels)]
			}
			dt, err := svc.DetectionTable(in)
			if err != nil {
				t.Fatalf("%s %v: %v", label, in, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", label, dt.ParamString())
		}
	}
	fig4, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	h := fig4.Hosts[0]
	tables("fig4/IP1", h.Service, len(h.Module.InputPorts()))
	for seed := int64(1999); seed <= 2002; seed++ {
		d, err := RandomTwoIPDesign(120, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range d.Hosts {
			tables(fmt.Sprintf("twoip%d/%s", seed, h.Module.ModuleName()), h.Service, len(h.Module.InputPorts()))
		}
	}
	for _, c := range []struct {
		nIn, nGates, nOut int
		shape, seed       int64
	}{{5, 60, 3, 7, 1}, {6, 90, 4, 11, 2}} {
		nl := gate.RandomCombinational(c.nIn, c.nGates, c.nOut, c.shape)
		ts, err := GenerateTests(nl, 200, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "atpg %s seed=%d coverage=%v candidates=%d patterns=%d\n",
			nl.Name, c.seed, ts.Coverage, ts.Candidates, len(ts.Patterns))
		for _, p := range ts.Patterns {
			fmt.Fprintf(&buf, "atpg %s %s\n", nl.Name, signal.WordFromBits(p))
		}
	}
	return buf.Bytes()
}

// TestGoldenProviderAnswers pins the provider's detection tables and
// generated test sets to testdata/golden/detection_tables.txt. Run
// `go test ./internal/fault -run TestGoldenProviderAnswers -update` to
// regenerate it after a deliberate change.
func TestGoldenProviderAnswers(t *testing.T) {
	checkGolden(t, goldenTables, goldenCorpus(t))
}

const goldenVirtual = "testdata/golden/virtual_results.txt"

// orderedPatterns returns the 2ⁿ exhaustive patterns in the order a
// seeded permutation draws them — the benchmark's fault-2ip ordering.
func orderedPatterns(n int, seed int64) [][]signal.Bit {
	all := exhaustivePatterns(n)
	out := make([][]signal.Bit, len(all))
	for i, v := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		out[i] = all[v]
	}
	return out
}

// virtualCorpus renders the virtual fault simulator's full answer —
// Result.Total, Detected, the ordered PerPattern lists and the protocol
// VirtualStats — for Figure 4 over exhaustive patterns and for four
// seeded two-IP designs under two seeded pattern orders, each at one and
// two workers.
func virtualCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	render := func(label string, build func() (*IPDesign, error), patterns [][]signal.Bit) {
		for _, workers := range []int{1, 2} {
			d, err := build()
			if err != nil {
				t.Fatal(err)
			}
			vs := d.NewVirtual()
			vs.Workers = workers
			res, err := vs.Run(patterns)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			tag := fmt.Sprintf("%s workers=%d", label, workers)
			fmt.Fprintf(&buf, "%s total=%d detected=%d stats=%+v\n", tag, res.Total, len(res.Detected), vs.Stats)
			names := make([]string, 0, len(res.Detected))
			for n := range res.Detected {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&buf, "%s detected %s=%d\n", tag, n, res.Detected[n])
			}
			for pi, fs := range res.PerPattern {
				fmt.Fprintf(&buf, "%s pattern %d %s:", tag, pi, signal.WordFromBits(patterns[pi]))
				for _, f := range fs {
					buf.WriteString(" " + f)
				}
				buf.WriteByte('\n')
			}
		}
	}
	render("fig4 exhaustive", Figure4Design, exhaustivePatterns(4))
	for seed := int64(1999); seed <= 2002; seed++ {
		build := func() (*IPDesign, error) { return RandomTwoIPDesign(120, seed) }
		for _, order := range []int64{21, 22} {
			render(fmt.Sprintf("twoip%d order=%d", seed, order), build, orderedPatterns(4, order))
		}
	}
	return buf.Bytes()
}

// TestGoldenVirtualResults pins virtual fault simulation end to end to
// testdata/golden/virtual_results.txt: the detections, their per-pattern
// order and the protocol work counters. Regenerate with -update only
// after a deliberate change to what the protocol computes.
func TestGoldenVirtualResults(t *testing.T) {
	checkGolden(t, goldenVirtual, virtualCorpus(t))
}

// checkGolden compares got against the committed golden file at path,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
