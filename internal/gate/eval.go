package gate

import (
	"fmt"

	"repro/internal/signal"
)

// Fault is a single stuck-at fault on a net.
type Fault struct {
	Net   NetID
	Stuck signal.Bit // B0 for stuck-at-0, B1 for stuck-at-1
}

// String renders the fault in the paper's symbolic spelling, relative to
// the given netlist (e.g. "I3sa0").
func (f Fault) String() string {
	sa := "sa?"
	switch f.Stuck {
	case signal.B0:
		sa = "sa0"
	case signal.B1:
		sa = "sa1"
	}
	return fmt.Sprintf("net%d%s", f.Net, sa)
}

// Symbol renders the fault with the net's name, e.g. "I3sa0".
func (f Fault) Symbol(n *Netlist) string {
	sa := "sa?"
	switch f.Stuck {
	case signal.B0:
		sa = "sa0"
	case signal.B1:
		sa = "sa1"
	}
	return n.NetName(f.Net) + sa
}

// Eval computes the primary-output values for the given primary-input
// values (in Inputs() order). It allocates a fresh state; use an
// Evaluator for repeated pattern simulation.
func (n *Netlist) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	ev, err := n.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return ev.Eval(inputs)
}

// Evaluator holds reusable evaluation state for one netlist, amortizing
// allocation across patterns. Evaluators are not safe for concurrent use;
// create one per goroutine.
type Evaluator struct {
	n      *Netlist
	values []signal.Bit

	// fault injection state
	faults map[NetID]signal.Bit

	// bridging-fault state: wired-AND pairs and the per-pass driven
	// values of bridged nets (as opposed to their resolved values).
	bridges []Bridge
	driven  map[NetID]signal.Bit

	// sw is SweepStuckAt's plane and force-mask scratch, allocated on
	// the first sweep.
	sw *sweepScratch
}

// NewEvaluator builds (levelizes) the netlist and returns a fresh
// evaluator over it.
func (n *Netlist) NewEvaluator() (*Evaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return &Evaluator{n: n, values: make([]signal.Bit, len(n.nets))}, nil
}

// SetFault injects a stuck-at fault for subsequent evaluations.
func (e *Evaluator) SetFault(f Fault) {
	if e.faults == nil {
		e.faults = make(map[NetID]signal.Bit)
	}
	e.faults[f.Net] = f.Stuck
}

// ClearFaults removes all injected faults.
func (e *Evaluator) ClearFaults() { e.faults = nil }

// Bridge is a wired-AND bridging fault between two nets: both nets
// assume the conjunction of their driven values — the classic model for
// a resistive short where the low level wins. This is one of the
// "general fault models" the paper notes the protocol extends to.
type Bridge struct {
	A, B NetID
}

// SetBridge installs a wired-AND bridging fault for subsequent
// evaluations. Bridges between nets on a combinational feedback path are
// resolved by bounded iteration and may conservatively report X.
func (e *Evaluator) SetBridge(b Bridge) {
	e.n.checkNet(b.A)
	e.n.checkNet(b.B)
	e.bridges = append(e.bridges, b)
}

// ClearBridges removes all bridging faults.
func (e *Evaluator) ClearBridges() { e.bridges = nil }

// bridgePeer returns the net bridged to id, if any.
func (e *Evaluator) bridgePeer(id NetID) (NetID, bool) {
	for _, b := range e.bridges {
		if b.A == id {
			return b.B, true
		}
		if b.B == id {
			return b.A, true
		}
	}
	return InvalidNet, false
}

// resolveBridged assigns a bridged net its wired-AND value, using the
// peer's driven value from this pass when available and its (stale or
// pessimistic) current value otherwise.
func (e *Evaluator) resolveBridged(id NetID, drivenVal signal.Bit) signal.Bit {
	peer, ok := e.bridgePeer(id)
	if !ok {
		return drivenVal
	}
	e.driven[id] = drivenVal
	pv, ok := e.driven[peer]
	if !ok {
		pv = e.values[peer]
	}
	return drivenVal.And(pv)
}

// Eval evaluates one input pattern and returns the primary-output values.
// The returned slice is freshly allocated. Eval is the scalar
// four-valued reference that the lane kernel (LaneEvaluator,
// SweepStuckAt) is tested against.
func (e *Evaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	n := e.n
	if len(inputs) != len(n.inputs) {
		return nil, fmt.Errorf("gate: %s: got %d input values, want %d", n.Name, len(inputs), len(n.inputs))
	}
	// Undriven nets read as X.
	for i := range e.values {
		if n.nets[i].driver == -1 && !n.nets[i].isPI {
			e.values[i] = signal.BX
		}
	}
	if len(e.bridges) == 0 {
		e.pass(inputs)
	} else {
		// Bridged nets start pessimistic, then bounded iteration reaches
		// the wired-AND fixpoint (two passes suffice for feed-forward
		// bridges; a third catches chained pairs).
		for _, b := range e.bridges {
			e.values[b.A] = signal.BX
			e.values[b.B] = signal.BX
		}
		for iter := 0; iter < 3; iter++ {
			e.driven = make(map[NetID]signal.Bit, 2*len(e.bridges))
			e.pass(inputs)
		}
	}
	out := make([]signal.Bit, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = e.values[id]
	}
	return out, nil
}

// pass runs one levelized evaluation sweep: primary-input assignment
// (with stuck-at and bridge application) followed by the gate loop.
func (e *Evaluator) pass(inputs []signal.Bit) {
	n := e.n
	for i, id := range n.inputs {
		v := inputs[i]
		if e.faults != nil {
			if b, ok := e.faults[id]; ok {
				v = b
			}
		}
		if len(e.bridges) > 0 {
			v = e.resolveBridged(id, v)
		}
		e.values[id] = v
	}
	for _, gi := range n.levels {
		g := &n.gates[gi]
		v := e.gateValue(g)
		if e.faults != nil {
			if b, ok := e.faults[g.Out]; ok {
				v = b
			}
		}
		if len(e.bridges) > 0 {
			v = e.resolveBridged(g.Out, v)
		}
		e.values[g.Out] = v
	}
}

// gateValue evaluates one gate over the current net values, using a small
// stack buffer to avoid per-gate allocation.
func (e *Evaluator) gateValue(g *Gate) signal.Bit {
	var buf [8]signal.Bit
	in := buf[:0]
	if len(g.In) > len(buf) {
		in = make([]signal.Bit, 0, len(g.In))
	}
	for _, id := range g.In {
		in = append(in, e.values[id])
	}
	return g.Kind.eval(in)
}

// Value returns the current value of a net after the last Eval.
func (e *Evaluator) Value(id NetID) signal.Bit {
	e.n.checkNet(id)
	return e.values[id]
}

// OutputWord packs the primary-output values of the last Eval into a Word
// (bit i = output i). It panics for a netlist with more than
// signal.MaxWordWidth outputs.
func (e *Evaluator) OutputWord() signal.Word {
	w := signal.NewWord(len(e.n.outputs))
	for i, id := range e.n.outputs {
		w = w.WithBit(i, e.values[id])
	}
	return w
}
