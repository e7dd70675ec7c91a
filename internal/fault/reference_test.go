package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

const goldenReference = "testdata/golden/reference.txt"

// ternaryPatterns returns n seeded patterns over {0, 1, X} for a
// netlist with nIn inputs.
func ternaryPatterns(nIn, n int, seed int64) [][]signal.Bit {
	r := rand.New(rand.NewSource(seed))
	out := make([][]signal.Bit, n)
	for i := range out {
		p := make([]signal.Bit, nIn)
		for j := range p {
			p[j] = signal.Bit(r.Intn(3))
		}
		out[i] = p
	}
	return out
}

// renderResult appends one flat-simulation Result to buf: the totals,
// every detection sorted by name, then each pattern's ordered list of
// new detections.
func renderResult(buf *bytes.Buffer, tag string, res *Result, patterns []string) {
	fmt.Fprintf(buf, "%s total=%d detected=%d\n", tag, res.Total, len(res.Detected))
	names := make([]string, 0, len(res.Detected))
	for n := range res.Detected {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(buf, "%s detected %s=%d\n", tag, n, res.Detected[n])
	}
	for pi, fs := range res.PerPattern {
		fmt.Fprintf(buf, "%s pattern %d %s:", tag, pi, patterns[pi])
		for _, f := range fs {
			buf.WriteString(" " + f)
		}
		buf.WriteByte('\n')
	}
}

func wordStrings(patterns [][]signal.Bit) []string {
	out := make([]string, len(patterns))
	for i, p := range patterns {
		out[i] = signal.WordFromBits(p).String()
	}
	return out
}

// referenceCorpus renders the flat full-disclosure reference simulator:
// serial stuck-at simulation at one and two workers on the Figure 4 and
// two-IP flat designs, C17 and a 4-bit ripple adder over patterns that
// include X. Pattern lists run past one 64-lane batch so batch
// boundaries are covered.
func referenceCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	serial := func(label string, nl *gate.Netlist, patterns [][]signal.Bit) {
		words := wordStrings(patterns)
		for _, workers := range []int{1, 2} {
			res, err := SerialSimulateFaultsWorkers(nl, Collapse(nl), patterns, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			renderResult(&buf, fmt.Sprintf("serial %s workers=%d", label, workers), res, words)
		}
	}
	fig4, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	serial("fig4flat", fig4.Flat, ternaryPatterns(4, 90, 1))
	for seed := int64(1999); seed <= 2002; seed++ {
		d, err := RandomTwoIPDesign(120, seed)
		if err != nil {
			t.Fatal(err)
		}
		serial(fmt.Sprintf("twoip%d", seed), d.Flat, ternaryPatterns(4, 90, seed))
	}
	serial("c17", gate.C17(), ternaryPatterns(5, 100, 3))
	serial("ripple4", gate.RippleAdder(4), ternaryPatterns(len(gate.RippleAdder(4).Inputs()), 150, 4))
	return buf.Bytes()
}

// TestGoldenSerialReference pins the flat reference simulator, serial
// stuck-at simulation, to testdata/golden/reference.txt. Regenerate with
// -update only after a deliberate change to what the reference computes.
func TestGoldenSerialReference(t *testing.T) {
	checkGolden(t, goldenReference, referenceCorpus(t))
}
