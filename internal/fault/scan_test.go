package fault

import (
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

func TestScanSimulateCounterFullCoverage(t *testing.T) {
	seq, err := gate.SequentialCounter(3)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive scan tests: every (state, enable) combination.
	var patterns []ScanPattern
	for st := uint64(0); st < 8; st++ {
		for en := uint64(0); en < 2; en++ {
			state := make([]signal.Bit, 3)
			for i := 0; i < 3; i++ {
				if st&(1<<uint(i)) != 0 {
					state[i] = signal.B1
				}
			}
			in := []signal.Bit{signal.B0}
			if en == 1 {
				in[0] = signal.B1
			}
			patterns = append(patterns, ScanPattern{State: state, Inputs: in})
		}
	}
	res, err := ScanSimulate(seq, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("exhaustive scan coverage = %.3f, want 1.0", res.Coverage())
	}
}

func TestScanSimulateMatchesCombinationalCore(t *testing.T) {
	// Under full scan, sequential fault sim of the wrapper must equal
	// combinational fault sim of the core with (inputs ++ state) as the
	// pattern — the reduction the scan assumption buys.
	seq, err := gate.SequentialCounter(3)
	if err != nil {
		t.Fatal(err)
	}
	scans := RandomScanPatternsRand(seq, 12, rand.New(rand.NewSource(42)))
	res, err := ScanSimulate(seq, scans)
	if err != nil {
		t.Fatal(err)
	}
	// Build the equivalent combinational patterns: core input order is
	// en, q0..q2 (declaration order of SequentialCounter).
	var comb [][]signal.Bit
	for _, p := range scans {
		pat := append(append([]signal.Bit(nil), p.Inputs...), p.State...)
		comb = append(comb, pat)
	}
	ref, err := SerialSimulateFaults(seq.Comb, Collapse(seq.Comb), comb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detected) != len(ref.Detected) {
		t.Fatalf("scan detected %d, combinational %d", len(res.Detected), len(ref.Detected))
	}
	for f, pi := range ref.Detected {
		if res.Detected[f] != pi {
			t.Errorf("fault %s: scan at %d, combinational at %d", f, res.Detected[f], pi)
		}
	}
}

func TestRandomScanPatternsDeterministic(t *testing.T) {
	seq, _ := gate.SequentialCounter(4)
	a := RandomScanPatternsRand(seq, 5, rand.New(rand.NewSource(7)))
	b := RandomScanPatternsRand(seq, 5, rand.New(rand.NewSource(7)))
	for i := range a {
		for j := range a[i].State {
			if a[i].State[j] != b[i].State[j] {
				t.Fatal("same seed diverged")
			}
		}
	}
	c := RandomScanPatternsRand(seq, 5, rand.New(rand.NewSource(8)))
	same := true
	for i := range a {
		for j := range a[i].State {
			if a[i].State[j] != c[i].State[j] {
				same = false
			}
		}
		for j := range a[i].Inputs {
			if a[i].Inputs[j] != c[i].Inputs[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical patterns")
	}
}

func TestSerialSimulateBridges(t *testing.T) {
	// Two buffers into an XOR: bridging the buffer outputs forces them
	// equal, so XOR = 0; detected whenever fault-free XOR = 1.
	nl := gate.NewNetlist("brx")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	x := nl.AddGate(gate.Buf, "x", a)
	y := nl.AddGate(gate.Buf, "y", b)
	o := nl.AddGate(gate.Xor, "o", x, y)
	nl.MarkOutput(o)

	bridges := []gate.Bridge{{A: x, B: y}}
	patterns := [][]signal.Bit{
		{signal.B0, signal.B0}, // XOR 0 either way: not detected
		{signal.B1, signal.B1}, // both high: bridge harmless: not detected
		{signal.B1, signal.B0}, // fault-free 1, bridged 0: detected
	}
	res, err := SerialSimulateBridges(nl, bridges, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detected) != 1 {
		t.Fatalf("detected = %v", res.Detected)
	}
	if pi, ok := res.Detected["bridge(x,y)"]; !ok || pi != 2 {
		t.Errorf("bridge detected at pattern %d, want 2", pi)
	}
	if res.Total != 1 || res.Coverage() != 1 {
		t.Errorf("result bookkeeping wrong: %+v", res)
	}
}

func TestSerialSimulateBridgesDropping(t *testing.T) {
	nl := gate.ArrayMultiplier(3)
	bridges := EnumerateBridges(nl, 20)
	if len(bridges) != 20 {
		t.Fatalf("enumerated %d bridges", len(bridges))
	}
	var patterns [][]signal.Bit
	for v := uint64(0); v < 64; v++ {
		patterns = append(patterns, nl.InputWord(v))
	}
	res, err := SerialSimulateBridges(nl, bridges, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() == 0 {
		t.Error("no bridge detected by exhaustive patterns")
	}
	// Dropping: no bridge reported twice.
	seen := map[string]bool{}
	for _, fs := range res.PerPattern {
		for _, f := range fs {
			if seen[f] {
				t.Fatalf("bridge %s detected twice", f)
			}
			seen[f] = true
		}
	}
}

// TestFlatSimulatorsRejectBadTargets: a target on a net outside the
// netlist, or a pattern of the wrong width, is an error from every flat
// simulator — never a silently undetected fault or a panic.
func TestFlatSimulatorsRejectBadTargets(t *testing.T) {
	nl := gate.C17()
	good := [][]signal.Bit{nl.InputWord(0), nl.InputWord(31)}
	short := [][]signal.Bit{nl.InputWord(0), {signal.B1}}
	seq, err := gate.SequentialCounter(3)
	if err != nil {
		t.Fatal(err)
	}
	stuck := func(net gate.NetID, patterns [][]signal.Bit) func() error {
		return func() error {
			_, err := SerialSimulateFaultsWorkers(nl, []gate.Fault{{Net: 1, Stuck: signal.B0}, {Net: net, Stuck: signal.B1}}, patterns, 2)
			return err
		}
	}
	bridge := func(b gate.Bridge, patterns [][]signal.Bit) func() error {
		return func() error {
			_, err := SerialSimulateBridges(nl, []gate.Bridge{{A: 0, B: 1}, b}, patterns)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"stuck-at past the last net", stuck(9999, good)},
		{"stuck-at on a negative net", stuck(-1, good)},
		{"stuck-at without patterns", stuck(9999, nil)},
		{"stuck-at short pattern", stuck(2, short)},
		{"bridge past the last net", bridge(gate.Bridge{A: 2, B: 9999}, good)},
		{"bridge on a negative net", bridge(gate.Bridge{A: -1, B: 2}, good)},
		{"bridge short pattern", bridge(gate.Bridge{A: 2, B: 3}, short)},
		{"scan short state", func() error {
			_, err := ScanSimulate(seq, []ScanPattern{{State: make([]signal.Bit, 2), Inputs: make([]signal.Bit, 1)}})
			return err
		}},
		{"scan missing inputs", func() error {
			_, err := ScanSimulate(seq, []ScanPattern{{State: make([]signal.Bit, 3)}})
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
