package module

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

// Fanout replicates its input event to N output connectors, because
// connectors themselves are strictly point-to-point. Each branch can have
// its own propagation delay — the paper's "custom fan-out modules can
// provide different delays to propagate a signal toward different target
// connectors".
type Fanout struct {
	*Skeleton
	in     *Port
	outs   []*Port
	delays []sim.Time
}

// NewFanout returns a fan-out module. delays may be nil (all zero) or
// have one entry per output connector.
func NewFanout(name string, width int, in *Connector, outs []*Connector, delays []sim.Time) *Fanout {
	if delays != nil && len(delays) != len(outs) {
		panic(fmt.Sprintf("module: fanout %q has %d outputs but %d delays", name, len(outs), len(delays)))
	}
	m := &Fanout{delays: delays}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, width, in)
	for i, c := range outs {
		m.outs = append(m.outs, m.AddPort(fmt.Sprintf("out%d", i), Out, width, c))
	}
	return m
}

// ProcessInputEvent replicates the event to every branch.
func (m *Fanout) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	for i, p := range m.outs {
		var d sim.Time
		if m.delays != nil {
			d = m.delays[i]
		}
		ctx.Drive(p, ev.Value, d)
	}
}

// Delay forwards its input to its output after a fixed delay — the
// special module representing net delay on a connection.
type Delay struct {
	*Skeleton
	in, out *Port
	// D is the propagation delay.
	D sim.Time
}

// NewDelay returns a delay element.
func NewDelay(name string, width int, d sim.Time, in, out *Connector) *Delay {
	m := &Delay{D: d}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, width, in)
	m.out = m.AddPort("out", Out, width, out)
	return m
}

// ProcessInputEvent forwards after the delay.
func (m *Delay) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	ctx.Drive(m.out, ev.Value, m.D)
}

// GateModule is a single logic gate as an event-driven module over bit
// connectors — the gate-level abstraction of the design model.
type GateModule struct {
	*Skeleton
	kind gate.Kind
	ins  []*Port
	out  *Port
	// Delay is the gate propagation delay (default 1).
	Delay sim.Time
}

// NewGateModule returns a gate of the given kind over bit connectors.
func NewGateModule(name string, kind gate.Kind, ins []*Connector, out *Connector) *GateModule {
	m := &GateModule{kind: kind, Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	for i, c := range ins {
		m.ins = append(m.ins, m.AddPort(fmt.Sprintf("in%d", i), In, 1, c))
	}
	m.out = m.AddPort("out", Out, 1, out)
	return m
}

// ProcessInputEvent re-evaluates the gate whenever an input changes, and
// drives the output only on value changes (event-driven suppression).
func (m *GateModule) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	bits := make([]signal.Bit, len(m.ins))
	for i, p := range m.ins {
		bits[i] = ctx.InputBitOn(p)
	}
	v := evalKind(m.kind, bits)
	prev, _ := ctx.State().(signal.Bit)
	if st := ctx.State(); st != nil && prev == v {
		return
	}
	ctx.SetState(v)
	ctx.Drive(m.out, signal.BitValue{B: v}, m.Delay)
}

// evalKind evaluates a gate kind over bit values.
func evalKind(k gate.Kind, in []signal.Bit) signal.Bit {
	switch k {
	case gate.Buf:
		return in[0].Or(in[0])
	case gate.Not:
		return in[0].Not()
	}
	v := in[0]
	for _, b := range in[1:] {
		switch k {
		case gate.And, gate.Nand:
			v = v.And(b)
		case gate.Or, gate.Nor:
			v = v.Or(b)
		case gate.Xor, gate.Xnor:
			v = v.Xor(b)
		}
	}
	switch k {
	case gate.Nand, gate.Nor, gate.Xnor:
		v = v.Not()
	}
	return v
}

// NetlistModule wraps a gate.Netlist as one event-driven component: bit
// inputs and outputs in the netlist's port order. This is how a provider
// packages a gate-level implementation behind the module interface — and
// the mixed-level bridge, since a NetlistModule instantiates seamlessly
// next to RTL modules.
type NetlistModule struct {
	*Skeleton
	nl    *gate.Netlist
	ins   []*Port
	outs  []*Port
	Delay sim.Time
}

// netlistState holds the per-scheduler evaluator (evaluators are not
// concurrency-safe), its one-lane batch and output buffers, and the last
// driven outputs for change suppression. It survives the recycling of
// its scheduler: every pass rewrites the planes it reads, so only last
// needs resetting.
type netlistState struct {
	ev    *gate.LaneEvaluator
	batch [][]signal.Bit // one pattern: the input buffer
	out   []signal.Bit
	last  []signal.Bit
}

// recycle resets the state to a new run's: no output driven yet.
func (st *netlistState) recycle() {
	for i := range st.last {
		st.last[i] = signal.BZ // sentinel: never driven
	}
}

// NewNetlistModule returns a module evaluating nl. ins and outs must
// match the netlist's primary input and output counts.
func NewNetlistModule(name string, nl *gate.Netlist, ins, outs []*Connector) *NetlistModule {
	if len(ins) != len(nl.Inputs()) || len(outs) != len(nl.Outputs()) {
		panic(fmt.Sprintf("module: netlist %s has %d/%d ports, got %d/%d connectors",
			nl.Name, len(nl.Inputs()), len(nl.Outputs()), len(ins), len(outs)))
	}
	if err := nl.Build(); err != nil {
		panic(err)
	}
	m := &NetlistModule{nl: nl, Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	for i, c := range ins {
		m.ins = append(m.ins, m.AddPort(fmt.Sprintf("in%d", i), In, 1, c))
	}
	for i, c := range outs {
		m.outs = append(m.outs, m.AddPort(fmt.Sprintf("out%d", i), Out, 1, c))
	}
	return m
}

// Netlist exposes the wrapped netlist (provider-side code only; in a
// remote deployment the netlist never reaches the user).
func (m *NetlistModule) Netlist() *gate.Netlist { return m.nl }

// ProcessInputEvent re-evaluates the netlist over the current port values
// and drives outputs that changed.
func (m *NetlistModule) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	st, _ := ctx.State().(*netlistState)
	if st == nil {
		e, err := m.nl.NewLaneEvaluator()
		if err != nil {
			panic(err)
		}
		st = &netlistState{
			ev:    e,
			batch: [][]signal.Bit{make([]signal.Bit, len(m.ins))},
			out:   make([]signal.Bit, len(m.outs)),
			last:  make([]signal.Bit, len(m.outs)),
		}
		st.recycle()
		ctx.SetState(st)
	}
	for i, p := range m.ins {
		st.batch[0][i] = ctx.InputBitOn(p)
	}
	if err := st.ev.EvalBatch(st.batch); err != nil {
		panic(err)
	}
	st.ev.ReadOutputs(st.out, 0)
	for i, p := range m.outs {
		if st.out[i] == st.last[i] {
			continue
		}
		st.last[i] = st.out[i]
		ctx.Drive(p, signal.BitValue{B: st.out[i]}, m.Delay)
	}
}

// WordToBits splits a word connector into per-bit connectors — the
// interface module between a part of the design described at the RTL and
// a part described at the gate level.
type WordToBits struct {
	*Skeleton
	in   *Port
	outs []*Port
}

// NewWordToBits returns the word-to-bits adapter; outs[i] carries bit i.
func NewWordToBits(name string, width int, in *Connector, outs []*Connector) *WordToBits {
	if len(outs) != width {
		panic(fmt.Sprintf("module: %s needs %d bit connectors, got %d", name, width, len(outs)))
	}
	m := &WordToBits{}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, width, in)
	for i, c := range outs {
		m.outs = append(m.outs, m.AddPort(fmt.Sprintf("bit%d", i), Out, 1, c))
	}
	return m
}

// ProcessInputEvent fans the word out bit by bit.
func (m *WordToBits) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	wv, ok := ev.Value.(signal.WordValue)
	if !ok {
		return
	}
	for i, p := range m.outs {
		ctx.Drive(p, signal.BitValue{B: wv.W.Bit(i)}, 0)
	}
}

// BitsToWord assembles per-bit connectors into a word connector.
type BitsToWord struct {
	*Skeleton
	ins []*Port
	out *Port
}

// NewBitsToWord returns the bits-to-word adapter; ins[i] carries bit i.
func NewBitsToWord(name string, width int, ins []*Connector, out *Connector) *BitsToWord {
	if len(ins) != width {
		panic(fmt.Sprintf("module: %s needs %d bit connectors, got %d", name, width, len(ins)))
	}
	m := &BitsToWord{}
	m.Skeleton = NewSkeleton(name, m)
	for i, c := range ins {
		m.ins = append(m.ins, m.AddPort(fmt.Sprintf("bit%d", i), In, 1, c))
	}
	m.out = m.AddPort("out", Out, width, out)
	return m
}

// ProcessInputEvent reassembles and drives the word (unknown bits X).
func (m *BitsToWord) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	w := signal.UnknownWord(len(m.ins))
	for i, p := range m.ins {
		w = w.WithBit(i, ctx.InputBitOn(p))
	}
	ctx.Drive(m.out, signal.WordValue{W: w}, 0)
}
