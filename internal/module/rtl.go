package module

import (
	"fmt"

	"repro/internal/signal"
	"repro/internal/sim"
)

// Register is a width-bit storage element: every value arriving on its
// input appears on its output after the register delay — the proprietary
// register macro of the paper's Figure 2 example.
type Register struct {
	*Skeleton
	in, out *Port
	// Delay is the input-to-output latency in time units (default 1).
	Delay sim.Time
}

// NewRegister returns a register between the two connectors.
func NewRegister(name string, width int, in, out *Connector) *Register {
	m := &Register{Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("d", In, width, in)
	m.out = m.AddPort("q", Out, width, out)
	return m
}

// ProcessInputEvent forwards the sampled value after the register delay.
func (m *Register) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	if ev.Port != m.in {
		return
	}
	ctx.Drive(m.out, ev.Value, m.Delay)
}

// Mult is the behavioral word-level multiplier: the abstract functional
// model of the paper's MULT IP component (the public part an IP provider
// would let users download). When both inputs hold known words, the
// product of the two width-bit words appears on the 2·width-bit output.
type Mult struct {
	*Skeleton
	a, b, o *Port
	// Delay is the propagation delay in time units.
	Delay sim.Time
	width int
}

// NewMult returns a behavioral multiplier. Operand width is limited to 32
// bits (the product must fit a uint64); wider datapaths use NetlistModule
// over a gate.ArrayMultiplier.
func NewMult(name string, width int, a, b, o *Connector) *Mult {
	if width > 32 {
		panic(fmt.Sprintf("module: behavioral arithmetic limited to 32-bit operands, got %d", width))
	}
	m := &Mult{Delay: 1, width: width}
	m.Skeleton = NewSkeleton(name, m)
	m.a = m.AddPort("a", In, width, a)
	m.b = m.AddPort("b", In, width, b)
	m.o = m.AddPort("o", Out, 2*width, o)
	return m
}

// ProcessInputEvent recomputes the product when both operands are known.
func (m *Mult) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	aw, aok := ctx.InputWordOn(m.a)
	bw, bok := ctx.InputWordOn(m.b)
	if !aok || !bok {
		return
	}
	av, _ := aw.Uint64()
	bv, _ := bw.Uint64()
	ctx.Drive(m.o, signal.WordValue{W: signal.WordFromUint64(av*bv, 2*m.width)}, m.Delay)
}

// Counter emits an incrementing word every clock event on its bit input.
type Counter struct {
	*Skeleton
	clk, o *Port
	width  int
	Delay  sim.Time
}

type counterState struct{ v uint64 }

// NewCounter returns a rising-edge counter.
func NewCounter(name string, width int, clk, o *Connector) *Counter {
	m := &Counter{width: width, Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	m.clk = m.AddPort("clk", In, 1, clk)
	m.o = m.AddPort("q", Out, width, o)
	return m
}

// Reset zeroes the count.
func (m *Counter) Reset(ctx *Ctx) { ctx.SetState(&counterState{}) }

// ProcessInputEvent increments on rising clock edges.
func (m *Counter) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	if ev.Port != m.clk {
		return
	}
	bv, ok := ev.Value.(signal.BitValue)
	if !ok || bv.B != signal.B1 {
		return
	}
	st, _ := ctx.State().(*counterState)
	if st == nil {
		st = &counterState{}
		ctx.SetState(st)
	}
	st.v++
	ctx.Drive(m.o, signal.WordValue{W: signal.WordFromUint64(st.v, m.width)}, m.Delay)
}

// ClockGen is an autonomous clock generator — the paper's example of a
// self-triggering component. It toggles its bit output every half period.
type ClockGen struct {
	*Skeleton
	out *Port
	// HalfPeriod is the time between edges.
	HalfPeriod sim.Time
	// Cycles bounds the number of full clock cycles; 0 means free-running
	// (bounded only by the simulation's Until time).
	Cycles int
}

type clockState struct {
	level signal.Bit
	edges int
}

// NewClockGen returns a clock generator with the given half period.
func NewClockGen(name string, halfPeriod sim.Time, cycles int, out *Connector) *ClockGen {
	m := &ClockGen{HalfPeriod: halfPeriod, Cycles: cycles}
	m.Skeleton = NewSkeleton(name, m)
	m.out = m.AddPort("clk", Out, 1, out)
	return m
}

// ProcessInputEvent implements Behavior; the clock has no inputs.
func (m *ClockGen) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {}

// Reset seeds the first edge.
func (m *ClockGen) Reset(ctx *Ctx) {
	ctx.SetState(&clockState{level: signal.B0})
	ctx.ScheduleSelf(m.HalfPeriod, "edge", nil)
}

// ProcessSelfEvent toggles the clock and reschedules.
func (m *ClockGen) ProcessSelfEvent(ctx *Ctx, tok *sim.SelfToken) {
	st := ctx.State().(*clockState)
	st.level = st.level.Not()
	st.edges++
	ctx.Drive(m.out, signal.BitValue{B: st.level}, 0)
	if m.Cycles == 0 || st.edges < 2*m.Cycles {
		ctx.ScheduleSelf(m.HalfPeriod, "edge", nil)
	}
}
