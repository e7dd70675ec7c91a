package module

import (
	"fmt"
	"strconv"

	"repro/internal/signal"
	"repro/internal/sim"
)

// FuncBitModule is a behavioral-level component over bit connectors: its
// functionality is an arbitrary Go function from input bits to output
// bits. This is the behavioral abstraction level the paper lists as
// devised ("we have devised an implementation at the behavioral level"),
// and it is also the natural shape of a downloaded PUBLIC PART: an IP
// provider ships the abstract function (a multiplication, a half-adder
// truth function) while the gate-level structure stays on its server.
type FuncBitModule struct {
	*Skeleton
	ins   []*Port
	outs  []*Port
	fn    func([]signal.Bit) []signal.Bit
	Delay sim.Time
}

// funcState caches the last driven outputs for change suppression.
type funcState struct{ last []signal.Bit }

// NewFuncBitModule returns a behavioral component with nIn bit inputs and
// nOut bit outputs computing fn.
// Used only by tests: TestFuncBitModuleBehavioral.
func NewFuncBitModule(name string, fn func([]signal.Bit) []signal.Bit, ins, outs []*Connector) *FuncBitModule {
	m := &FuncBitModule{fn: fn, Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	for i, c := range ins {
		m.ins = append(m.ins, m.AddPort("in"+strconv.Itoa(i), In, 1, c))
	}
	for i, c := range outs {
		m.outs = append(m.outs, m.AddPort("out"+strconv.Itoa(i), Out, 1, c))
	}
	return m
}

// ProcessInputEvent recomputes the function and drives changed outputs.
func (m *FuncBitModule) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	in := make([]signal.Bit, len(m.ins))
	for i, p := range m.ins {
		in[i] = ctx.InputBitOn(p)
	}
	out := m.fn(in)
	if len(out) != len(m.outs) {
		panic(fmt.Sprintf("module: %s function returned %d bits, want %d", m.ModuleName(), len(out), len(m.outs)))
	}
	st, _ := ctx.State().(*funcState)
	if st == nil {
		st = &funcState{last: make([]signal.Bit, len(m.outs))}
		for i := range st.last {
			st.last[i] = signal.BZ // sentinel: never driven
		}
		ctx.SetState(st)
	}
	for i, p := range m.outs {
		if out[i] == st.last[i] {
			continue
		}
		st.last[i] = out[i]
		ctx.Drive(p, signal.BitValue{B: out[i]}, m.Delay)
	}
}

// FuncWordModule is the word-level behavioral counterpart: a function
// from input words to output words. fn reads in and writes every element
// of out; both slices are per-run scratch that the module reuses across
// events (so fn must not retain them), which keeps an operator event
// free of slice allocations.
type FuncWordModule struct {
	*Skeleton
	ins   []*Port
	outs  []*Port
	fn    func(in, out []signal.Word)
	Delay sim.Time
}

// wordState is a FuncWordModule's per-run scratch. It lives in the run's
// state slot, not on the module, so concurrent runs of one design never
// share it.
type wordState struct{ in, out []signal.Word }

// NewFuncWordModule returns a behavioral word-level component; widths[i]
// gives the width of each port, inputs first.
func NewFuncWordModule(name string, fn func(in, out []signal.Word), inWidths, outWidths []int, ins, outs []*Connector) *FuncWordModule {
	if len(inWidths) != len(ins) || len(outWidths) != len(outs) {
		panic(fmt.Sprintf("module: %s width/connector count mismatch", name))
	}
	m := &FuncWordModule{fn: fn, Delay: 1}
	m.Skeleton = NewSkeleton(name, m)
	for i, c := range ins {
		m.ins = append(m.ins, m.AddPort("in"+strconv.Itoa(i), In, inWidths[i], c))
	}
	for i, c := range outs {
		m.outs = append(m.outs, m.AddPort("out"+strconv.Itoa(i), Out, outWidths[i], c))
	}
	return m
}

// ProcessInputEvent recomputes once every input holds a word.
func (m *FuncWordModule) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	st, _ := ctx.State().(*wordState)
	if st == nil {
		st = &wordState{in: make([]signal.Word, len(m.ins)), out: make([]signal.Word, len(m.outs))}
		ctx.SetState(st)
	}
	for i, p := range m.ins {
		wv, ok := ctx.Input(p).(signal.WordValue)
		if !ok {
			return
		}
		st.in[i] = wv.W
	}
	m.fn(st.in, st.out)
	for i, p := range m.outs {
		ctx.Drive(p, signal.WordValue{W: st.out[i]}, m.Delay)
	}
}
