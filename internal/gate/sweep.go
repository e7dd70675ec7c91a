package gate

import (
	"fmt"

	"repro/internal/signal"
)

// faultsPerPass is how many faulty machines one SweepStuckAt pass
// carries: a machine word has 64 lanes and lane 0 is the fault-free
// machine.
const faultsPerPass = Lanes - 1

// force is one net's stuck-at overrides for a sweep pass: the lanes in
// mask take the dual-rail level (known, value) instead of the level the
// net is driven to.
type force struct {
	mask, known, value uint64
}

// sweepScratch is the reusable state of SweepStuckAt, kept on the
// Evaluator so repeated sweeps allocate nothing.
type sweepScratch struct {
	planes []Plane // per slot (see op)
	forces []force // per slot; all zero between passes
	good   []signal.Bit
	out    []signal.Bit
}

// broadcast returns the dual-rail planes of a level driven into every
// lane. Levels outside the four defined ones read modulo 4, as in the
// scalar truth tables.
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

// SweepStuckAt evaluates one input pattern on the fault-free machine and
// on one machine per single stuck-at fault in faults, faultsPerPass
// faulty machines per levelized pass of bitwise operations on machine
// words. It calls visit(-1, good) once with the fault-free outputs, then
// visit(i, out) for every fault in order with the outputs of the machine
// carrying faults[i] alone. good stays valid until SweepStuckAt returns;
// out is overwritten by the next call. The outputs are identical to Eval
// after ClearFaults and SetFault(faults[i]), for all four levels.
//
// The sweep leaves the net values Eval reads and writes alone, and
// refuses to run while faults or bridges are installed on the
// evaluator.
func (e *Evaluator) SweepStuckAt(inputs []signal.Bit, faults []Fault, visit func(i int, out []signal.Bit)) error {
	n := e.n
	if len(inputs) != len(n.inputs) {
		return fmt.Errorf("gate: %s: got %d input values, want %d", n.Name, len(inputs), len(n.inputs))
	}
	if e.faults != nil || len(e.bridges) > 0 {
		return fmt.Errorf("gate: %s: SweepStuckAt needs an evaluator without injected faults or bridges", n.Name)
	}
	for _, f := range faults {
		if f.Net < 0 || int(f.Net) >= len(n.nets) {
			return fmt.Errorf("gate: %s: fault on invalid net id %d", n.Name, f.Net)
		}
	}
	if e.sw == nil {
		e.sw = &sweepScratch{
			planes: make([]Plane, n.slots),
			forces: make([]force, n.slots),
			good:   make([]signal.Bit, len(n.outputs)),
			out:    make([]signal.Bit, len(n.outputs)),
		}
	}
	e.sweep(inputs, faults, visit)
	return nil
}

// sweep runs the passes of SweepStuckAt over validated arguments.
//
//gocad:noalloc
func (e *Evaluator) sweep(inputs []signal.Bit, faults []Fault, visit func(i int, out []signal.Bit)) {
	s := e.sw
	for start := 0; ; start += faultsPerPass {
		end := min(start+faultsPerPass, len(faults))
		batch := faults[start:end]
		for l, f := range batch {
			bit := uint64(1) << (l + 1)
			k, v := broadcast(f.Stuck)
			fc := &s.forces[f.Net]
			fc.mask |= bit
			fc.known |= k & bit
			fc.value |= v & bit
		}
		e.sweepPass(inputs)
		for _, f := range batch {
			s.forces[f.Net] = force{}
		}
		if start == 0 {
			e.n.readLane(s.planes, s.good, 0)
			visit(-1, s.good)
		}
		for l := range batch {
			e.n.readLane(s.planes, s.out, l+1)
			visit(start+l, s.out)
		}
		if end == len(faults) {
			return
		}
	}
}

// sweepPass runs one lane pass over all 64 lanes: primary inputs are
// broadcast, then the netlist's compiled op table runs with each net's
// forced lanes overridden as soon as the net is driven. Undriven nets
// are never written, so their planes stay all-X.
//
//gocad:noalloc
func (e *Evaluator) sweepPass(inputs []signal.Bit) {
	n, s := e.n, e.sw
	planes, forces := s.planes, s.forces
	for i, id := range n.inputs {
		k, v := broadcast(inputs[i])
		if fc := forces[id]; fc.mask != 0 {
			k = k&^fc.mask | fc.known
			v = v&^fc.mask | fc.value
		}
		planes[id] = Plane{k, v}
	}
	n.lanePass(planes, forces)
}
