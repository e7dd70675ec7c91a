package gate

import (
	"fmt"
	"slices"

	"repro/internal/signal"
)

// Sequential models a synchronous sequential circuit in the standard
// Huffman form: a combinational core plus a state register. State bits
// appear to the core as extra primary inputs (present state) and extra
// primary outputs (next state). This is the paper's "extension to
// sequential circuits": under the full-scan assumption the register is
// directly controllable and observable, so sequential fault simulation
// reduces to combinational fault simulation of the core — which is what
// internal/fault's ScanSimulate exploits.
type Sequential struct {
	// Comb is the combinational core.
	Comb *Netlist
	// StateIn are the core's present-state input nets (register outputs).
	StateIn []NetID
	// StateOut are the core's next-state output nets (register inputs).
	StateOut []NetID

	primaryIn []NetID
	// inFrom[i] locates core input i: k ≥ 0 is primary input k and
	// -1-k is state bit k.
	inFrom []int
}

// NewSequential wraps a combinational core. stateIn must be core primary
// inputs; stateOut must be core primary outputs; they must have equal
// length (the register width).
func NewSequential(core *Netlist, stateIn, stateOut []NetID) (*Sequential, error) {
	if len(stateIn) != len(stateOut) {
		return nil, fmt.Errorf("gate: state register width mismatch: %d in, %d out", len(stateIn), len(stateOut))
	}
	for _, id := range stateIn {
		if !core.IsInput(id) {
			return nil, fmt.Errorf("gate: state input %s is not a core primary input", core.NetName(id))
		}
	}
	for _, id := range stateOut {
		if !core.IsOutput(id) {
			return nil, fmt.Errorf("gate: state output %s is not a core primary output", core.NetName(id))
		}
	}
	s := &Sequential{Comb: core, StateIn: stateIn, StateOut: stateOut}
	for _, id := range core.Inputs() {
		s.inFrom = append(s.inFrom, locate(id, stateIn, &s.primaryIn))
	}
	if err := core.Build(); err != nil {
		return nil, err
	}
	return s, nil
}

// locate returns -1-k for the k-th state net, and otherwise appends id
// to the primary nets and returns its index there.
func locate(id NetID, state []NetID, primary *[]NetID) int {
	if k := slices.Index(state, id); k >= 0 {
		return -1 - k
	}
	*primary = append(*primary, id)
	return len(*primary) - 1
}

// PrimaryInputs returns the non-state inputs.
func (s *Sequential) PrimaryInputs() []NetID { return s.primaryIn }

// StateWidth returns the register width.
func (s *Sequential) StateWidth() int { return len(s.StateIn) }

// CoreInputs returns the core's input values, in Comb.Inputs() order,
// for a present state and the primary-input values.
func (s *Sequential) CoreInputs(state, inputs []signal.Bit) ([]signal.Bit, error) {
	if len(state) != len(s.StateIn) || len(inputs) != len(s.primaryIn) {
		return nil, fmt.Errorf("gate: %s: state width %d and %d inputs, want %d and %d",
			s.Comb.Name, len(state), len(inputs), len(s.StateIn), len(s.primaryIn))
	}
	v := make([]signal.Bit, len(s.inFrom))
	for i, k := range s.inFrom {
		if k >= 0 {
			v[i] = inputs[k]
		} else {
			v[i] = state[-1-k]
		}
	}
	return v, nil
}

// SequentialCounter builds a width-bit synchronous counter with an
// enable input: state' = state + en, output = state. A compact sequential
// workload for tests and benchmarks.
// Used only by tests: TestSequentialCounterCounts.
func SequentialCounter(width int) (*Sequential, error) {
	core := NewNetlist(fmt.Sprintf("ctr%d", width))
	en := core.AddInput("en")
	st := make([]NetID, width)
	for i := 0; i < width; i++ {
		st[i] = core.AddInput(fmt.Sprintf("q%d", i))
	}
	// Ripple increment: next[i] = q[i] XOR carry[i]; carry[0] = en,
	// carry[i+1] = carry[i] AND q[i].
	carry := en
	next := make([]NetID, width)
	for i := 0; i < width; i++ {
		next[i] = core.AddGate(Xor, fmt.Sprintf("n%d", i), st[i], carry)
		if i < width-1 {
			carry = core.AddGate(And, fmt.Sprintf("c%d", i), carry, st[i])
		}
	}
	// Observable output: the current state, buffered.
	outs := make([]NetID, width)
	for i := 0; i < width; i++ {
		outs[i] = core.AddGate(Buf, fmt.Sprintf("o%d", i), st[i])
		core.MarkOutput(outs[i])
	}
	for i := 0; i < width; i++ {
		core.MarkOutput(next[i])
	}
	return NewSequential(core, st, next)
}
