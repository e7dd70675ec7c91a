package fault

import (
	"fmt"
	"math/bits"

	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

// Result summarizes a flat (full-disclosure) fault simulation run.
type Result struct {
	// Total is the size of the collapsed target fault list.
	Total int
	// Detected maps each detected fault's symbol to the index of the
	// first pattern that detected it.
	Detected map[string]int
	// PerPattern[i] lists the faults newly detected by pattern i.
	PerPattern [][]string
}

// Coverage returns detected/total in [0,1].
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(len(r.Detected)) / float64(r.Total)
}

// CoverageCurve returns the cumulative coverage after each pattern.
func (r *Result) CoverageCurve() []float64 {
	out := make([]float64, len(r.PerPattern))
	seen := 0
	for i, fs := range r.PerPattern {
		seen += len(fs)
		if r.Total > 0 {
			out[i] = float64(seen) / float64(r.Total)
		}
	}
	return out
}

// SerialSimulateFaults runs serial stuck-at fault simulation with fault
// dropping over a flat netlist and a target fault list (Collapse(nl) for
// the netlist's whole collapsed universe, or exactly the component
// faults a provider published). This is the reference an IP owner with
// full disclosure could run: virtual fault simulation must detect
// exactly the same fault set on the flattened equivalent design. Workers
// fan out over the faults, one per CPU; call SerialSimulateFaultsWorkers
// to bound them.
func SerialSimulateFaults(nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit) (*Result, error) {
	return SerialSimulateFaultsWorkers(nl, reps, patterns, 0)
}

// SerialSimulateFaultsWorkers runs the flat reference simulation by
// parallel-pattern single-fault propagation (Waicukauski et al., 1985):
// each fault is injected into every lane of the lane kernel and
// evaluated 64 patterns per pass, until a pass detects it, so its first
// set lane is its first detecting pattern. Workers fan out over the
// faults, each with a private evaluator, and the verdicts are merged in
// fault-list order, so the Result is identical to pattern-by-pattern
// serial simulation with fault dropping, for any worker count. A fault
// on a net outside nl, or a pattern of the wrong width, is an error.
func SerialSimulateFaultsWorkers(nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit, workers int) (*Result, error) {
	pool := sim.Pool{Workers: workers}
	evs := make([]*gate.LaneEvaluator, pool.Size())
	for w := range evs {
		le, err := nl.NewLaneEvaluator()
		if err != nil {
			return nil, err
		}
		evs[w] = le
	}
	machine := func(w, i int) (*gate.LaneEvaluator, error) {
		return evs[w], evs[w].InjectStuckAt(reps[i])
	}
	symbol := func(i int) string { return reps[i].Symbol(nl) }
	return simulate(nl, patterns, patterns, len(reps), pool, machine, symbol)
}

// simulate is the pattern-parallel single-fault loop behind stuck-at
// and bridging-fault simulation. For each of n faulty machines,
// machine(worker, i) readies an evaluator that runs machine i over
// faultyPatterns (patterns as that evaluator's netlist reads them); it
// then evaluates 64-pattern batches until one shows a known output
// difference against the fault-free batch of nl. Lanes past the last
// pattern read all-X inputs, so the fault-free outputs there are X and
// never differ.
func simulate(nl *gate.Netlist, patterns, faultyPatterns [][]signal.Bit, n int, pool sim.Pool,
	machine func(worker, i int) (*gate.LaneEvaluator, error), symbol func(i int) string) (*Result, error) {
	good, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	for pi, p := range patterns {
		if len(p) != len(nl.Inputs()) {
			return nil, fmt.Errorf("fault: pattern %d: got %d input values, want %d", pi, len(p), len(nl.Inputs()))
		}
	}
	var goodOut [][]gate.Plane // per batch
	for start := 0; start < len(patterns); start += gate.Lanes {
		if err := good.EvalBatch(patterns[start:min(start+gate.Lanes, len(patterns))]); err != nil {
			return nil, err
		}
		goodOut = append(goodOut, good.OutputPlanes(nil))
	}
	first := make([]int, n) // first detecting pattern, or -1
	err = pool.ForWorker(n, func(w, i int) error {
		le, err := machine(w, i)
		if err != nil {
			return fmt.Errorf("fault: target %d: %w", i, err)
		}
		first[i] = -1
		for b, out := range goodOut {
			start := b * gate.Lanes
			if err := le.EvalBatch(faultyPatterns[start:min(start+gate.Lanes, len(patterns))]); err != nil {
				return err
			}
			if diff := le.DiffLanes(out); diff != 0 {
				first[i] = start + bits.TrailingZeros64(diff)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Total:      n,
		Detected:   make(map[string]int),
		PerPattern: make([][]string, len(patterns)),
	}
	for i, pi := range first {
		if pi >= 0 {
			sym := symbol(i)
			res.Detected[sym] = pi
			res.PerPattern[pi] = append(res.PerPattern[pi], sym)
		}
	}
	return res, nil
}
