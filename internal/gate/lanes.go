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
			if fc := forces[o.out]; fc.mask != 0 {
				p.Known = p.Known&^fc.mask | fc.known
				p.Value = p.Value&^fc.mask | fc.value
			}
		}
		planes[o.out] = p
	}
}

// readLane decodes one lane of the primary outputs into out.
//
//gocad:noalloc
func (n *Netlist) readLane(planes []Plane, out []signal.Bit, lane int) {
	for j, id := range n.outputs {
		p := planes[id]
		k := p.Known >> lane & 1
		v := p.Value >> lane & 1
		out[j] = signal.Bit((k^1)<<1 | v)
	}
}

// LaneEvaluator evaluates up to Lanes input patterns per levelized pass
// of bitwise operations on machine words, pattern l in lane l. Every
// lane's outputs equal Eval's on that pattern, for all four levels;
// levels outside the four defined ones read modulo 4, as in the scalar
// truth tables. A LaneEvaluator is not safe for concurrent use. Several
// estimators may share one when their calls are serialized, because
// each reads the planes only during its own call.
type LaneEvaluator struct {
	n      *Netlist
	planes []Plane // per slot, after the last EvalBatch
}

// NewLaneEvaluator builds (levelizes and compiles) the netlist and
// returns a lane evaluator over it.
func (n *Netlist) NewLaneEvaluator() (*LaneEvaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return &LaneEvaluator{n: n, planes: make([]Plane, n.slots)}, nil
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
// l. Lanes past the last pattern evaluate all-X inputs.
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
	n, planes := le.n, le.planes
	for i, id := range n.inputs {
		var k, v uint64
		for l, p := range patterns {
			b := uint64(p[i])
			k |= (b>>1&1 ^ 1) << l
			v |= (b & 1) << l
		}
		planes[id] = Plane{k, v}
	}
	n.lanePass(planes, nil)
}

// Planes returns every net's plane after the last EvalBatch, indexed by
// NetID. The slice is read-only and is overwritten by the next batch.
func (le *LaneEvaluator) Planes() []Plane { return le.planes[:len(le.n.nets)] }

// ReadOutputs decodes the primary outputs of one lane of the last
// EvalBatch into out, which needs one element per output.
func (le *LaneEvaluator) ReadOutputs(out []signal.Bit, lane int) {
	le.n.readLane(le.planes, out, lane)
}
