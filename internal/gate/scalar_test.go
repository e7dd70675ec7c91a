package gate

import (
	"fmt"

	"repro/internal/signal"
)

// This file holds the scalar four-valued interpreter the lane kernel is
// tested against — per-gate truth tables over signal.Bit, a stuck-at
// fault map, and wired-AND bridges resolved by three levelized passes —
// the independent oracle for EvalBatch, InjectStuckAt, SweepStuckAt and
// Bridged.

// eval computes the gate function over four-valued inputs.
func (k Kind) eval(in []signal.Bit) signal.Bit {
	v := in[0].Or(in[0]) // a gate input reads Z as X
	for _, b := range in[1:] {
		switch k {
		case And, Nand:
			v = v.And(b)
		case Or, Nor:
			v = v.Or(b)
		case Xor, Xnor:
			v = v.Xor(b)
		}
	}
	if k == Not || k == Nand || k == Nor || k == Xnor {
		v = v.Not()
	}
	return v
}

// Evaluator is the scalar reference evaluator of one netlist.
type Evaluator struct {
	n       *Netlist
	values  []signal.Bit
	faults  map[NetID]signal.Bit
	bridges []Bridge
	driven  map[NetID]signal.Bit // a pass's driven values of bridged nets
}

// NewEvaluator builds the netlist and returns a scalar evaluator.
func (n *Netlist) NewEvaluator() (*Evaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return &Evaluator{n: n, values: make([]signal.Bit, len(n.nets)), faults: map[NetID]signal.Bit{}}, nil
}

// SetFault injects a stuck-at fault; ClearFaults removes them all.
func (e *Evaluator) SetFault(f Fault) { e.faults[f.Net] = f.Stuck }
func (e *Evaluator) ClearFaults()     { clear(e.faults) }

// SetBridge installs a wired-AND bridge; ClearBridges removes them all.
func (e *Evaluator) SetBridge(b Bridge) { e.bridges = append(e.bridges, b) }
func (e *Evaluator) ClearBridges()      { e.bridges = nil }

// Eval evaluates one input pattern and returns the primary outputs.
// Bridged nets start at X, then three passes settle the wired-AND.
func (e *Evaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	n := e.n
	if len(inputs) != len(n.inputs) {
		return nil, fmt.Errorf("gate: %s: got %d input values, want %d", n.Name, len(inputs), len(n.inputs))
	}
	for i := range e.values {
		if n.nets[i].driver == -1 && !n.nets[i].isPI {
			e.values[i] = signal.BX // undriven nets read as X
		}
	}
	passes := 1
	for _, b := range e.bridges {
		e.values[b.A], e.values[b.B], passes = signal.BX, signal.BX, 3
	}
	for range passes {
		e.driven = map[NetID]signal.Bit{}
		for i, id := range n.inputs {
			e.set(id, inputs[i])
		}
		for _, gi := range n.levels {
			g := &n.gates[gi]
			in := make([]signal.Bit, len(g.In))
			for i, id := range g.In {
				in[i] = e.values[id]
			}
			e.set(g.Out, g.Kind.eval(in))
		}
	}
	out := make([]signal.Bit, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = e.values[id]
	}
	return out, nil
}

// set assigns a net its driven value v under the stuck-at faults, then
// resolves a bridged net to v AND its peer's value: the peer's driven
// value from this pass when it has one, its current value otherwise.
func (e *Evaluator) set(id NetID, v signal.Bit) {
	if b, ok := e.faults[id]; ok {
		v = b
	}
	for _, b := range e.bridges {
		peer := b.B
		if b.B == id {
			peer = b.A
		} else if b.A != id {
			continue
		}
		e.driven[id] = v
		pv, ok := e.driven[peer]
		if !ok {
			pv = e.values[peer]
		}
		v = v.And(pv)
		break
	}
	e.values[id] = v
}
