package gate

import (
	"fmt"

	"repro/internal/signal"
)

// This file holds the scalar four-valued interpreter the lane kernel is
// tested against — per-gate truth tables over signal.Bit and a stuck-at
// fault map — the independent oracle for EvalBatch, InjectStuckAt and
// SweepStuckAt.

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
	n      *Netlist
	values []signal.Bit
	faults map[NetID]signal.Bit
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

// Eval evaluates one input pattern and returns the primary outputs.
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
	out := make([]signal.Bit, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = e.values[id]
	}
	return out, nil
}

// set assigns a net its driven value v under the stuck-at faults.
func (e *Evaluator) set(id NetID, v signal.Bit) {
	if b, ok := e.faults[id]; ok {
		v = b
	}
	e.values[id] = v
}
