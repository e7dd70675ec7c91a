package ppp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenOracle = "testdata/golden/oracle.txt"

// oraclePatterns is the length of each circuit's pattern stream: two
// full 64-pattern batches and a short third one.
const oraclePatterns = 130

// oracleCircuits returns the netlists the gate-level oracle corpus pins.
// The random circuit also reads one primary input straight back as an
// output, so a Z input reaches an output unchanged.
func oracleCircuits() []*gate.Netlist {
	rc := gate.RandomCombinational(8, 200, 8, 42)
	rc.MarkOutput(rc.Inputs()[3])
	return []*gate.Netlist{gate.ArrayMultiplier(16), gate.RippleAdder(8), gate.C17(), rc}
}

// oracleStream returns a seeded pattern stream over nl's inputs: mostly
// fully known random patterns, with patterns carrying X and Z inputs,
// exact repeats (nothing switches) and single-input flips mixed in.
func oracleStream(nl *gate.Netlist, seed int64, n int) [][]signal.Bit {
	r := rand.New(rand.NewSource(seed))
	w := len(nl.Inputs())
	out := make([][]signal.Bit, n)
	for i := range out {
		p := make([]signal.Bit, w)
		switch c := r.Intn(20); {
		case i > 0 && c < 2: // repeat
			copy(p, out[i-1])
		case i > 0 && c < 4: // flip one known input
			copy(p, out[i-1])
			j := r.Intn(w)
			p[j] = signal.B1 - p[j]&1
		case c < 9: // some X and Z inputs
			for j := range p {
				p[j] = signal.Bit(r.Intn(2))
				if r.Intn(5) == 0 {
					p[j] = signal.BX + signal.Bit(r.Intn(2))
				}
			}
		default:
			for j := range p {
				p[j] = signal.Bit(r.Intn(2))
			}
		}
		out[i] = p
	}
	return out
}

// oracleCorpus evaluates every oracle circuit's stream: the outputs,
// the power simulator's energy and the timing simulator's delay of each
// pattern (floats as IEEE-754 bits), then the power report totals and
// the static critical path. With chunk 1 it runs the scalar Evaluator
// and one Step per pattern, as the corpus was generated; otherwise it
// runs the lane kernel, StepBatch and Run over chunks of that size.
func oracleCorpus(t *testing.T, chunk int) []byte {
	t.Helper()
	var b bytes.Buffer
	for ci, nl := range oracleCircuits() {
		stream := oracleStream(nl, int64(100+ci), oraclePatterns)
		outs, energies, delays, rep := oracleRun(t, nl, stream, chunk)
		for i, p := range stream {
			fmt.Fprintf(&b, "%s %d %s %s %016x %016x\n", nl.Name, i,
				signal.WordFromBits(p), signal.WordFromBits(outs[i]), math.Float64bits(energies[i]), math.Float64bits(delays[i]))
		}
		cp, err := CriticalPath(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s report patterns=%d toggles=%d energy=%016x avg=%016x peak=%016x critical=%016x\n",
			nl.Name, rep.Patterns, rep.TotalToggles, math.Float64bits(rep.TotalEnergy),
			math.Float64bits(rep.AvgPower), math.Float64bits(rep.PeakPower), math.Float64bits(cp))
	}
	return b.Bytes()
}

// oracleRun applies stream to nl's evaluator and estimators (see
// oracleCorpus for chunk).
func oracleRun(t *testing.T, nl *gate.Netlist, stream [][]signal.Bit, chunk int) (outs [][]signal.Bit, energies, delays []float64, rep Report) {
	t.Helper()
	ps, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTimingSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chunk == 1 {
		for _, p := range stream {
			out, err := nl.Eval(p)
			if err != nil {
				t.Fatal(err)
			}
			e, err := ps.Step(p)
			if err != nil {
				t.Fatal(err)
			}
			d, err := ts.Step(p)
			if err != nil {
				t.Fatal(err)
			}
			outs, energies, delays = append(outs, out), append(energies, e), append(delays, d)
		}
		return outs, energies, delays, ps.Report()
	}
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(stream); start += chunk {
		c := stream[start:min(start+chunk, len(stream))]
		for lo := 0; lo < len(c); lo += gate.Lanes {
			lanes := c[lo:min(lo+gate.Lanes, len(c))]
			if err := le.EvalBatch(lanes); err != nil {
				t.Fatal(err)
			}
			for l := range lanes {
				out := make([]signal.Bit, len(nl.Outputs()))
				le.ReadOutputs(out, l)
				outs = append(outs, out)
			}
		}
		if energies, err = ps.StepBatch(c, energies); err != nil {
			t.Fatal(err)
		}
		if delays, err = ts.StepBatch(c, delays); err != nil {
			t.Fatal(err)
		}
	}
	// Run over the whole stream must report the same totals, and a
	// series of the same energies as power.
	run, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = run.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.Report()
	if rep.Patterns != want.Patterns || rep.TotalToggles != want.TotalToggles || rep.TotalEnergy != want.TotalEnergy ||
		rep.AvgPower != want.AvgPower || rep.PeakPower != want.PeakPower || len(rep.PerPattern) != len(stream) {
		t.Fatalf("%s: Run report %+v, StepBatch report %+v", nl.Name, rep, want)
	}
	for i, pw := range rep.PerPattern {
		if pw != energies[i]/run.lib.CycleTime {
			t.Fatalf("%s: Run series[%d] = %v, want %v", nl.Name, i, pw, energies[i]/run.lib.CycleTime)
		}
	}
	return outs, energies, delays, rep
}

// TestGoldenOracle pins the gate-level oracle — per-pattern Eval outputs,
// power energies and timing delays over four-valued pattern streams —
// to testdata/golden/oracle.txt, which was generated by the scalar
// per-pattern estimators. Run
// `go test ./internal/ppp -run TestGoldenOracle -update` to regenerate
// it after a deliberate change to the evaluator or the estimators.
func TestGoldenOracle(t *testing.T) {
	checkGolden(t, goldenOracle, oracleCorpus(t, 1))
}

// TestGoldenOracleBatched reproduces the oracle corpus through the lane
// kernel and the batch steps, at chunk sizes that split the stream
// unevenly across lane passes.
func TestGoldenOracleBatched(t *testing.T) {
	if *update {
		t.Skip("-update writes the corpus from the per-pattern path")
	}
	for _, chunk := range []int{5, 63, 64, 65, oraclePatterns} {
		checkGolden(t, goldenOracle, oracleCorpus(t, chunk))
	}
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
