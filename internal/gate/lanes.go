package gate

import (
	"fmt"

	"repro/internal/signal"
)

// Lanes is how many patterns or machines one lane pass carries: one
// per bit of a machine word.
const Lanes = 64

// Plane is one net's value across the lanes of a lane pass, in
// dual-rail form: a lane's known bit says the level is 0 or 1 and its
// value bit says which. An unknown lane is X when its value bit is clear
// and Z when it is set; gate outputs never produce Z. Two lanes hold the
// same four-valued level exactly when both their bits agree.
type Plane struct {
	Known, Value uint64
}

// The gate functions of the compiled lane kernel. BUF and NOT are a
// two-input AND and NAND with both inputs on one net; the inverting
// functions set the opInv bit.
const (
	opAnd uint8 = iota
	opOr
	opXor
	opInv  = 4
	opNand = opInv | opAnd
	opNor  = opInv | opOr
	opXnor = opInv | opXor
)

// op is one two-input gate of the compiled lane kernel: its function,
// its input slots and its output slot. Slots below NumNets are nets; a
// gate with more than two inputs compiles to a chain of ops through
// temporary slots above them (see compile).
type op struct {
	a, b, out int32
	fn        uint8
}

// compile flattens the levelized gates into the lane kernel's op table.
// AND, OR and XOR are associative in dual-rail form, so a gate with k>2
// inputs becomes k-1 two-input ops of its un-inverted function chained
// through temporary slots, the last one inverting for NAND, NOR and
// XNOR. The table is built once per netlist, next to the levelized
// order, and is read-only from then on.
func (n *Netlist) compile() {
	ops := make([]op, 0, len(n.levels))
	slots := len(n.nets)
	for _, gi := range n.levels {
		g := &n.gates[gi]
		var fn uint8
		switch g.Kind {
		case Buf, And:
			fn = opAnd
		case Not, Nand:
			fn = opNand
		case Or:
			fn = opOr
		case Nor:
			fn = opNor
		case Xor:
			fn = opXor
		case Xnor:
			fn = opXnor
		}
		acc, in := int32(g.In[0]), g.In[1:]
		if len(in) == 0 {
			in = g.In // a unary gate reads its input on both sides
		}
		for _, id := range in[:len(in)-1] {
			ops = append(ops, op{a: acc, b: int32(id), out: int32(slots), fn: fn &^ opInv})
			acc = int32(slots)
			slots++
		}
		ops = append(ops, op{a: acc, b: int32(in[len(in)-1]), out: int32(g.Out), fn: fn})
	}
	n.ops, n.slots = ops, slots
}

// lanePass evaluates every op in levelized order. The caller has set the
// primary inputs' planes; undriven nets are never written. With forces
// non-nil, each driven net's forced lanes are overridden as soon as the
// net is driven.
//
// Each input reads as two masks, "is 1" (known & value) and "is 0"
// (known &^ value), so Z and X inputs both read as unknown. AND is
// one = ∧ones, zero = ∨zeros; OR is the dual; XOR is known where both
// inputs are, with the value planes xor-ed. Inverting swaps one and
// zero. Gate outputs are never Z.
//
//gocad:noalloc
func (n *Netlist) lanePass(planes []Plane, forces []force) {
	for i := range n.ops {
		o := &n.ops[i]
		pa, pb := planes[o.a], planes[o.b]
		var one, zero uint64
		switch o.fn &^ opInv {
		case opAnd:
			one = pa.Known & pa.Value & pb.Known & pb.Value
			zero = pa.Known&^pa.Value | pb.Known&^pb.Value
		case opOr:
			one = pa.Known&pa.Value | pb.Known&pb.Value
			zero = (pa.Known &^ pa.Value) & (pb.Known &^ pb.Value)
		default:
			known, x := pa.Known&pb.Known, pa.Value^pb.Value
			one, zero = known&x, known&^x
		}
		if o.fn&opInv != 0 {
			one, zero = zero, one
		}
		p := Plane{one | zero, one}
		if forces != nil {
			p = forces[o.out].apply(p)
		}
		planes[o.out] = p
	}
}

// Lane decodes the plane's level in one lane.
func (p Plane) Lane(lane int) signal.Bit {
	k := p.Known >> lane & 1
	v := p.Value >> lane & 1
	return signal.Bit((k^1)<<1 | v)
}

// readLane decodes one lane of the primary outputs into out.
//
//gocad:noalloc
func (n *Netlist) readLane(planes []Plane, out []signal.Bit, lane int) {
	for j, id := range n.outputs {
		out[j] = planes[id].Lane(lane)
	}
}

// TableInputs is the most primary inputs TruthTable takes: one lane per
// four-valued input combination, 4^TableInputs = Lanes.
const TableInputs = 3

// TruthTable returns the primary outputs' planes, in Outputs() order,
// of one lane pass over every four-valued input combination: lane c
// carries combination c, input i at level c>>2i&3, so output j's level
// for combination c is table[j].Lane(c). Lanes past 4^len(Inputs())
// repeat earlier combinations. A netlist with more than TableInputs
// inputs is an error.
func (n *Netlist) TruthTable() ([]Plane, error) {
	if len(n.inputs) > TableInputs {
		return nil, fmt.Errorf("gate: %s: truth table of %d inputs, want at most %d", n.Name, len(n.inputs), TableInputs)
	}
	if err := n.build(); err != nil {
		return nil, err
	}
	planes := make([]Plane, n.slots)
	for i, id := range n.inputs {
		var p Plane
		for c := 0; c < Lanes; c++ {
			level := uint64(c >> (2 * i) & 3)
			p.Known |= (level>>1 ^ 1) << c
			p.Value |= (level & 1) << c
		}
		planes[id] = p
	}
	n.lanePass(planes, nil)
	table := make([]Plane, len(n.outputs))
	for j, id := range n.outputs {
		table[j] = planes[id]
	}
	return table, nil
}

// LaneEvaluator evaluates up to Lanes input patterns per levelized pass
// of bitwise operations on machine words, pattern l in lane l, for all
// four levels; levels outside the four defined ones read modulo 4. It is
// the netlist's only evaluator: one-lane batches serve single patterns,
// and force masks inject stuck-at faults (InjectStuckAt, SweepStuckAt).
// A LaneEvaluator is not safe for concurrent use. Several estimators may
// share one when their calls are serialized, because each reads the
// planes only during its own call.
type LaneEvaluator struct {
	n      *Netlist
	planes []Plane // per slot, after the last pass
	// forces holds per-slot lane overrides: the injected fault between
	// passes, plus a sweep's faulty machines during one. Nil until the
	// first injection or sweep.
	forces    []force
	injected  bool
	good, out []signal.Bit // SweepStuckAt's output scratch
}

// NewLaneEvaluator builds (levelizes and compiles) the netlist and
// returns a lane evaluator over it.
func (n *Netlist) NewLaneEvaluator() (*LaneEvaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return &LaneEvaluator{n: n, planes: make([]Plane, n.slots)}, nil
}

// Eval computes the primary-output values for the given primary-input
// values (in Inputs() order) in a one-lane batch. It allocates a fresh
// evaluator; keep a LaneEvaluator for repeated evaluation.
// Used only by tests: TestSealOpenFunctionalParity, TestWatermarkPreservesFunction.
func (n *Netlist) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	le, err := n.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	return le.Eval(inputs)
}

// Netlist returns the evaluated netlist.
func (le *LaneEvaluator) Netlist() *Netlist { return le.n }

// CheckPatterns reports an error unless every pattern has one value per
// primary input.
func (le *LaneEvaluator) CheckPatterns(patterns [][]signal.Bit) error {
	for _, p := range patterns {
		if len(p) != len(le.n.inputs) {
			return fmt.Errorf("gate: %s: got %d input values, want %d", le.n.Name, len(p), len(le.n.inputs))
		}
	}
	return nil
}

// EvalBatch evaluates 1..Lanes patterns in one pass, pattern l in lane
// l, with the injected fault, if any, forced into every lane. Lanes past
// the last pattern evaluate all-X inputs.
func (le *LaneEvaluator) EvalBatch(patterns [][]signal.Bit) error {
	if len(patterns) == 0 || len(patterns) > Lanes {
		return fmt.Errorf("gate: %s: batch of %d patterns, want 1..%d", le.n.Name, len(patterns), Lanes)
	}
	if err := le.CheckPatterns(patterns); err != nil {
		return err
	}
	le.evalBatch(patterns)
	return nil
}

// evalBatch is EvalBatch over validated patterns.
//
//gocad:noalloc
func (le *LaneEvaluator) evalBatch(patterns [][]signal.Bit) {
	n, planes, forces := le.n, le.planes, le.forces
	for i, id := range n.inputs {
		var k, v uint64
		for l, p := range patterns {
			b := uint64(p[i])
			k |= (b>>1&1 ^ 1) << l
			v |= (b & 1) << l
		}
		p := Plane{k, v}
		if forces != nil {
			p = forces[id].apply(p)
		}
		planes[id] = p
	}
	n.lanePass(planes, forces)
}

// Eval evaluates one pattern in a one-lane batch and returns its
// primary outputs in a fresh slice.
func (le *LaneEvaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	if err := le.EvalBatch([][]signal.Bit{inputs}); err != nil {
		return nil, err
	}
	out := make([]signal.Bit, len(le.n.outputs))
	le.ReadOutputs(out, 0)
	return out, nil
}

// Planes returns every net's plane after the last pass, indexed by
// NetID. The slice is read-only and is overwritten by the next pass.
func (le *LaneEvaluator) Planes() []Plane { return le.planes[:len(le.n.nets)] }

// ReadOutputs decodes the primary outputs of one lane of the last pass
// into out, which needs one element per output.
func (le *LaneEvaluator) ReadOutputs(out []signal.Bit, lane int) {
	le.n.readLane(le.planes, out, lane)
}

// OutputPlanes appends the primary outputs' planes after the last pass
// to dst, in Outputs() order, and returns the extended slice.
func (le *LaneEvaluator) OutputPlanes(dst []Plane) []Plane {
	for _, id := range le.n.outputs {
		dst = append(dst, le.planes[id])
	}
	return dst
}

// DiffLanes returns the lanes of the last pass in which some primary
// output is known both there and in good (output planes in Outputs()
// order, as OutputPlanes returns them) and the two levels differ: the
// lanes whose pattern detects the evaluated fault.
//
//gocad:noalloc
func (le *LaneEvaluator) DiffLanes(good []Plane) uint64 {
	var diff uint64
	for j, id := range le.n.outputs {
		p, g := le.planes[id], good[j]
		diff |= p.Known & g.Known & (p.Value ^ g.Value)
	}
	return diff
}
