package module

import (
	"fmt"
	"strconv"

	"repro/internal/signal"
	"repro/internal/sim"
)

// FuncWordModule is a behavioral-level component over word connectors:
// its functionality is an arbitrary Go function from input words to
// output words — the behavioral abstraction level the paper lists as
// devised, and the natural shape of a public part. fn reads in and
// writes every element of out; both slices are per-run scratch that the
// module reuses across events (so fn must not retain them), which keeps
// an operator event free of slice allocations.
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
