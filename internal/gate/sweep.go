package gate

import (
	"fmt"
	"math/bits"

	"repro/internal/signal"
)

// Fault is a single stuck-at fault on a net.
type Fault struct {
	Net   NetID
	Stuck signal.Bit // B0 for stuck-at-0, B1 for stuck-at-1
}

// String renders the fault by net id, e.g. "net3sa0".
func (f Fault) String() string {
	return fmt.Sprintf("net%d%s", f.Net, f.suffix())
}

// Symbol renders the fault with the net's name, e.g. "I3sa0".
func (f Fault) Symbol(n *Netlist) string {
	return n.NetName(f.Net) + f.suffix()
}

func (f Fault) suffix() string {
	switch f.Stuck {
	case signal.B0:
		return "sa0"
	case signal.B1:
		return "sa1"
	}
	return "sa?"
}

// faultsPerPass is how many faulty machines one SweepStuckAt pass
// carries: a machine word has 64 lanes and lane 0 is the fault-free
// machine.
const faultsPerPass = Lanes - 1

// force is one net's stuck-at overrides for a pass: the lanes in mask
// take the dual-rail level (known, value) instead of the level the net
// is driven to.
type force struct {
	mask, known, value uint64
}

// apply overrides p's forced lanes.
func (fc force) apply(p Plane) Plane {
	return Plane{p.Known&^fc.mask | fc.known, p.Value&^fc.mask | fc.value}
}

// broadcast returns the dual-rail planes of a level driven into every
// lane. Levels outside the four defined ones read modulo 4.
func broadcast(b signal.Bit) (known, value uint64) {
	switch b & 3 {
	case signal.B0:
		return ^uint64(0), 0
	case signal.B1:
		return ^uint64(0), ^uint64(0)
	case signal.BZ:
		return 0, ^uint64(0)
	}
	return 0, 0
}

// checkFaults reports an error unless every fault names a net of n.
func (n *Netlist) checkFaults(faults []Fault) error {
	for _, f := range faults {
		if f.Net < 0 || int(f.Net) >= len(n.nets) {
			return fmt.Errorf("gate: %s: fault on invalid net id %d", n.Name, f.Net)
		}
	}
	return nil
}

// InjectStuckAt forces the single stuck-at fault f into every lane of
// the following EvalBatch passes, replacing the fault injected before.
// A fault on an undriven net has no effect: such nets read X.
func (le *LaneEvaluator) InjectStuckAt(f Fault) error {
	if err := le.n.checkFaults([]Fault{f}); err != nil {
		return err
	}
	le.ClearStuckAt()
	if le.forces == nil {
		le.forces = make([]force, le.n.slots)
	}
	k, v := broadcast(f.Stuck)
	le.forces[f.Net] = force{^uint64(0), k, v}
	le.injected = true
	return nil
}

// ClearStuckAt removes the injected fault.
func (le *LaneEvaluator) ClearStuckAt() {
	if le.injected {
		clear(le.forces)
		le.injected = false
	}
}

// SweepStuckAt evaluates one input pattern on the fault-free machine and
// on one machine per single stuck-at fault in faults, faultsPerPass
// faulty machines per lane pass. It calls visit(-1, good) once with the
// fault-free outputs, then visit(i, out), in increasing i, only for the
// faults whose machine's outputs differ from good in some output's
// four-valued level: out holds the outputs of the machine carrying
// faults[i] alone. Every fault not visited leaves the outputs exactly
// at good. good stays valid until SweepStuckAt returns; out is
// overwritten by the next call. The sweep overwrites the planes of the
// last batch, and refuses to run while a fault is injected.
func (le *LaneEvaluator) SweepStuckAt(inputs []signal.Bit, faults []Fault, visit func(i int, out []signal.Bit)) error {
	n := le.n
	if len(inputs) != len(n.inputs) {
		return fmt.Errorf("gate: %s: got %d input values, want %d", n.Name, len(inputs), len(n.inputs))
	}
	if le.injected {
		return fmt.Errorf("gate: %s: SweepStuckAt needs an evaluator without an injected fault", n.Name)
	}
	if err := n.checkFaults(faults); err != nil {
		return err
	}
	if le.good == nil {
		le.good = make([]signal.Bit, len(n.outputs))
		le.out = make([]signal.Bit, len(n.outputs))
	}
	if le.forces == nil {
		le.forces = make([]force, n.slots)
	}
	le.sweep(inputs, faults, visit)
	return nil
}

// sweep runs the passes of SweepStuckAt over validated arguments: each
// pass broadcasts the inputs into all 64 lanes and forces fault l of the
// batch into lane l+1 alone. Lane 0 is the fault-free machine in every
// pass, so a pass's changed machines are the lanes where some output
// plane differs from lane 0's level broadcast, in either rail.
//
//gocad:noalloc
func (le *LaneEvaluator) sweep(inputs []signal.Bit, faults []Fault, visit func(i int, out []signal.Bit)) {
	n, planes, forces := le.n, le.planes, le.forces
	for start := 0; ; start += faultsPerPass {
		end := min(start+faultsPerPass, len(faults))
		batch := faults[start:end]
		for l, f := range batch {
			bit := uint64(1) << (l + 1)
			k, v := broadcast(f.Stuck)
			fc := &forces[f.Net]
			fc.mask |= bit
			fc.known |= k & bit
			fc.value |= v & bit
		}
		for i, id := range n.inputs {
			k, v := broadcast(inputs[i])
			planes[id] = forces[id].apply(Plane{k, v})
		}
		n.lanePass(planes, forces)
		for _, f := range batch {
			forces[f.Net] = force{}
		}
		if start == 0 {
			n.readLane(planes, le.good, 0)
			visit(-1, le.good)
		}
		var changed uint64
		for _, id := range n.outputs {
			p := planes[id]
			changed |= (p.Known ^ -(p.Known & 1)) | (p.Value ^ -(p.Value & 1))
		}
		changed &= (uint64(1)<<len(batch) - 1) << 1
		for ; changed != 0; changed &= changed - 1 {
			l := bits.TrailingZeros64(changed)
			n.readLane(planes, le.out, l)
			visit(start+l-1, le.out)
		}
		if end == len(faults) {
			return
		}
	}
}
