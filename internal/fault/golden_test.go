package fault

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
			fmt.Fprintf(&buf, "atpg %s %s\n", nl.Name, signal.Word{Bits: p})
		}
	}
	return buf.Bytes()
}

// TestGoldenProviderAnswers pins the provider's detection tables and
// generated test sets to testdata/golden/detection_tables.txt. Run
// `go test ./internal/fault -run TestGoldenProviderAnswers -update` to
// regenerate it after a deliberate change.
func TestGoldenProviderAnswers(t *testing.T) {
	got := goldenCorpus(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTables), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTables, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", goldenTables, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenTables, len(gl), len(wl))
}
