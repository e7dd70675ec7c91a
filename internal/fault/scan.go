package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

// ScanPattern is one full-scan test: the register contents scanned in
// plus the primary-input values for the capture cycle.
type ScanPattern struct {
	State  []signal.Bit
	Inputs []signal.Bit
}

// ScanSimulate fault-simulates a sequential circuit under the full-scan
// assumption — the paper's "extensions to sequential circuits": with
// every state element directly controllable (scan-in) and observable
// (scan-out), each test reduces to one combinational evaluation of the
// core over the scanned-in state and the capture inputs, and the core's
// outputs are exactly the primary outputs plus the captured next state,
// both of which serve as observation points. The target fault list is
// the collapsed universe of the combinational core.
// Used only by tests: TestScanSimulateCounterFullCoverage.
func ScanSimulate(seq *gate.Sequential, patterns []ScanPattern) (*Result, error) {
	vectors := make([][]signal.Bit, len(patterns))
	for pi, p := range patterns {
		v, err := seq.CoreInputs(p.State, p.Inputs)
		if err != nil {
			return nil, fmt.Errorf("fault: scan pattern %d: %w", pi, err)
		}
		vectors[pi] = v
	}
	return SerialSimulateFaults(seq.Comb, Collapse(seq.Comb), vectors)
}

// SerialSimulateBridges fault-simulates a list of wired-AND bridging
// faults over a flat combinational netlist — the second "general fault
// model" beyond single stuck-at. Each bridge runs the stuck-at
// simulator's pattern-parallel loop over nl's unrolled bridged netlist
// (gate.Netlist.Bridged), so detection semantics match: a bridge is
// detected by the first pattern producing a known primary-output
// difference, and detected bridges are dropped. A bridge naming a net
// outside nl is an error.
// Used only by tests: TestSerialSimulateBridges.
func SerialSimulateBridges(nl *gate.Netlist, bridges []gate.Bridge, patterns [][]signal.Bit) (*Result, error) {
	ext := make([][]signal.Bit, len(patterns)) // plus the bridged netlist's X input
	for i, p := range patterns {
		ext[i] = append(p[:len(p):len(p)], signal.BX)
	}
	machine := func(_, i int) (*gate.LaneEvaluator, error) {
		bn, err := nl.Bridged(bridges[i])
		if err != nil {
			return nil, err
		}
		return bn.NewLaneEvaluator()
	}
	symbol := func(i int) string {
		return "bridge(" + nl.NetName(bridges[i].A) + "," + nl.NetName(bridges[i].B) + ")"
	}
	return simulate(nl, patterns, ext, len(bridges), sim.Pool{}, machine, symbol)
}

// EnumerateBridges returns candidate wired-AND bridges between distinct
// nets of similar circuit depth (a common realistic-bridge heuristic:
// adjacent wires), bounded to at most max pairs.
// Used only by tests: TestSerialSimulateBridgesDropping.
func EnumerateBridges(nl *gate.Netlist, max int) []gate.Bridge {
	var out []gate.Bridge
	n := nl.NumNets()
	for a := 0; a < n && len(out) < max; a++ {
		for d := 1; d <= 3 && a+d < n && len(out) < max; d++ {
			out = append(out, gate.Bridge{A: gate.NetID(a), B: gate.NetID(a + d)})
		}
	}
	return out
}

// knownDiff reports whether two bit vectors differ at any position where
// both hold known values.
func knownDiff(a, b []signal.Bit) bool {
	for i := range a {
		if i < len(b) && a[i].Known() && b[i].Known() && a[i] != b[i] {
			return true
		}
	}
	return false
}

// RandomScanPatternsRand draws the scan-in states and capture inputs
// from the given explicitly seeded generator — the sanctioned source of
// randomness in kernel code (gocad-lint simdeterminism forbids the
// global one).
// Used only by tests: TestRandomScanPatternsDeterministic,
// TestScanSimulateMatchesCombinationalCore.
func RandomScanPatternsRand(seq *gate.Sequential, n int, r *rand.Rand) []ScanPattern {
	out := make([]ScanPattern, n)
	for i := range out {
		st := make([]signal.Bit, seq.StateWidth())
		for j := range st {
			if r.Intn(2) == 1 {
				st[j] = signal.B1
			}
		}
		in := make([]signal.Bit, len(seq.PrimaryInputs()))
		for j := range in {
			if r.Intn(2) == 1 {
				in[j] = signal.B1
			}
		}
		out[i] = ScanPattern{State: st, Inputs: in}
	}
	return out
}
