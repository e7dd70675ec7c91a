package module

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/estim"
	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

// ctlModule exercises the optional behavior interfaces: control tokens
// and behavior-private state.
type ctlModule struct {
	*Skeleton
	out      *Port
	controls []string
}

func newCtlModule(name string, out *Connector) *ctlModule {
	m := &ctlModule{}
	m.Skeleton = NewSkeleton(name, m)
	m.out = m.AddPort("out", Out, 4, out)
	return m
}

func (m *ctlModule) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {}

func (m *ctlModule) ProcessControl(ctx *Ctx, tok *sim.ControlToken) {
	m.controls = append(m.controls, tok.Command)
	if tok.Command == "emit" {
		ctx.Drive(m.out, word(7, 4), 1)
	}
}

func TestControlTokenDispatch(t *testing.T) {
	c := NewWordConnector("c", 4)
	m := newCtlModule("m", c)
	out := NewPrimaryOutput("out", 4, c)
	ctrl := sim.NewController(m.Skeleton, out.Skeleton)
	ctrl.Seed = func(ctx *sim.Context) {
		ctx.Post(&sim.ControlToken{T: 1, Dst: m.Skeleton, Command: "emit"})
		ctx.Post(&sim.ControlToken{T: 2, Dst: m.Skeleton, Command: "noop"})
	}
	st := ctrl.StartOn(sim.NewScheduler(), nil, nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(m.controls) != 2 || m.controls[0] != "emit" {
		t.Errorf("controls = %v", m.controls)
	}
	if len(out.History(st.Scheduler)) != 1 {
		t.Error("control-driven emission missing")
	}
}

func TestPortValuesSnapshots(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(9, 4)}, 1, c1)
	reg := NewRegister("reg", 4, c1, c2)
	out := NewPrimaryOutput("out", 4, c2)
	s := NewSimulation(NewCircuit("t", in, reg, out))
	// Capture port values during the run via an instant hook.
	var lastIn, lastOut []signal.Value
	st := s.ctrl.StartOn(sim.NewScheduler(), nil, func(sched *sim.Scheduler) {
		sched.AddInstantHook(func(ctx *sim.Context, _ sim.Time) {
			lastIn = reg.AppendPortValues(lastIn[:0], ctx, In)
			lastOut = reg.AppendPortValues(lastOut[:0], ctx, Out)
		})
	})
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(lastIn) != 1 || lastIn[0] == nil {
		t.Fatalf("input snapshot = %v", lastIn)
	}
	v, _ := lastIn[0].(signal.WordValue).W.Uint64()
	if v != 9 {
		t.Errorf("captured input = %d", v)
	}
	if len(lastOut) != 1 || lastOut[0] == nil {
		t.Fatalf("output snapshot = %v", lastOut)
	}
}

func TestInputAndOutputPortLists(t *testing.T) {
	reg := NewRegister("r", 4, nil, nil)
	ins := reg.InputPorts()
	outs := reg.OutputPorts()
	if len(ins) != 1 || ins[0].Name != "d" {
		t.Errorf("inputs = %v", ins)
	}
	if len(outs) != 1 || outs[0].Name != "q" {
		t.Errorf("outputs = %v", outs)
	}
	if reg.Base() != reg.Skeleton {
		t.Error("Base identity wrong")
	}
}

func TestCandidatesReturnsCopy(t *testing.T) {
	r := NewRegister("r", 4, nil, nil)
	r.AddEstimator(&estim.Constant{Meta: estim.Meta{Name: "a", Param: estim.ParamArea}, Value: 1})
	c1 := r.Candidates(estim.ParamArea)
	c1[0] = nil
	c2 := r.Candidates(estim.ParamArea)
	if c2[0] == nil {
		t.Error("Candidates leaked internal slice")
	}
	params := r.EstimationParams()
	if len(params) != 1 || params[0] != estim.ParamArea {
		t.Errorf("EstimationParams = %v", params)
	}
}

func TestSelectedEstimatorLookup(t *testing.T) {
	r := NewRegister("r", 4, nil, nil)
	e := &estim.Constant{Meta: estim.Meta{Name: "a", Param: estim.ParamArea}, Value: 1}
	r.AddEstimator(e)
	s := estim.NewSetup("s")
	s.Set(estim.ParamArea, estim.Criteria{})
	s.SelectFor(r)
	got, ok := r.selected[s][estim.ParamArea]
	if !ok || got.EstimatorName() != "a" {
		t.Errorf("selected = %v, %v", got, ok)
	}
	other := estim.NewSetup("other")
	if _, ok := r.selected[other][estim.ParamArea]; ok {
		t.Error("selection leaked across setups")
	}
}

func TestConnectorInputEnd(t *testing.T) {
	c := NewWordConnector("c", 4)
	in := NewPatternInput("in", 4, nil, 1, c) // attaches Out port
	_ = in
	if c.InputEnd() != nil {
		t.Error("InputEnd found on output-only connector")
	}
	reg := NewRegister("r", 4, c, nil)
	ie := c.InputEnd()
	if ie == nil || ie.Owner() != reg.Skeleton {
		t.Error("InputEnd wrong")
	}
	if c.Peer(ie) == nil {
		t.Error("Peer lookup failed")
	}
}

func TestMuxWithUnknownSelectHolds(t *testing.T) {
	a := NewWordConnector("a", 4)
	b := NewWordConnector("b", 4)
	s := NewBitConnector("s")
	o := NewWordConnector("o", 4)
	ina := NewPatternInput("ina", 4, []signal.Value{word(1, 4)}, 1, a)
	inb := NewPatternInput("inb", 4, []signal.Value{word(2, 4)}, 1, b)
	selIn := NewPatternInput("sel", 1, []signal.Value{signal.BitValue{B: signal.BX}}, 2, s)
	mux := NewMux2("mux", 4, a, b, s, o)
	out := NewPrimaryOutput("out", 4, o)
	st := NewSimulation(NewCircuit("t", ina, inb, selIn, mux, out)).Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(out.History(st.Scheduler)) != 0 {
		t.Error("mux drove output with X select")
	}
}

// TestHistoryEmptyWhenRunMissesOutput: a recycled scheduler whose next
// run never reaches the output reports an empty history, not the last
// run's — whether that run resets the output and stops before its first
// value, or runs a controller that does not list the output, leaving its
// slot as the last run stamped it.
func TestHistoryEmptyWhenRunMissesOutput(t *testing.T) {
	c := NewWordConnector("c", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4)}, 10, c)
	out := NewPrimaryOutput("out", 4, c)
	full := sim.NewController(in.Skeleton, out.Skeleton)
	early := sim.NewController(in.Skeleton, out.Skeleton)
	unlisted := sim.NewController(in.Skeleton)
	early.Options.Until, unlisted.Options.Until = 5, 5
	for _, second := range []struct {
		name string
		ctrl *sim.Controller
	}{{"stopped before the output", early}, {"output not listed", unlisted}} {
		sched := sim.NewScheduler()
		if st := full.StartOn(sched, nil, nil); st.Err != nil || len(out.History(sched)) != 1 {
			t.Fatalf("%s: first run observed %v (err %v), want one value", second.name, out.History(sched), st.Err)
		}
		if st := second.ctrl.StartOn(sched, nil, nil); st.Err != nil {
			t.Fatal(st.Err)
		}
		if h := out.History(sched); len(h) != 0 {
			t.Errorf("%s: the second run reports %v, want nothing", second.name, h)
		}
	}
}

// schedSink makes the schedulers an allocation test builds escape alike.
var schedSink *sim.Scheduler

// TestHistoryOnSchedulerThatNeverRanOutput: History on a scheduler that
// never met the output is empty, and reads without interning the output:
// it allocates nothing beyond the scheduler itself, where interning would
// build the handler table.
func TestHistoryOnSchedulerThatNeverRanOutput(t *testing.T) {
	out := NewPrimaryOutput("out", 4, NewWordConnector("c", 4))
	if h := out.History(sim.NewScheduler()); len(h) != 0 {
		t.Fatalf("a scheduler that never ran the output reports %v", h)
	}
	fresh := func() { schedSink = sim.NewScheduler() }
	base := testing.AllocsPerRun(20, fresh)
	read := testing.AllocsPerRun(20, func() {
		fresh()
		out.History(schedSink)
	})
	if read != base {
		t.Errorf("History on a fresh scheduler allocates %.0f, want none beyond the scheduler's %.0f", read-base, base)
	}
}

func TestFuncBitModuleBehavioral(t *testing.T) {
	// A behavioral majority gate.
	ins := []*Connector{NewBitConnector("i0"), NewBitConnector("i1"), NewBitConnector("i2")}
	o := NewBitConnector("o")
	maj := NewFuncBitModule("maj", func(in []signal.Bit) []signal.Bit {
		n := 0
		for _, b := range in {
			if b == signal.B1 {
				n++
			}
		}
		return []signal.Bit{signal.FromBool(n >= 2)}
	}, ins, []*Connector{o})
	p0 := NewPatternInput("p0", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, ins[0])
	p1 := NewPatternInput("p1", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 2, ins[1])
	p2 := NewPatternInput("p2", 1, []signal.Value{signal.BitValue{B: signal.B0}}, 3, ins[2])
	out := NewPrimaryOutput("out", 1, o)
	st := NewSimulation(NewCircuit("t", maj, p0, p1, p2, out)).Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no majority output")
	}
	if h[len(h)-1].Value.(signal.BitValue).B != signal.B1 {
		t.Error("majority(1,1,0) != 1")
	}
}

func TestFuncWordModuleBehavioral(t *testing.T) {
	a := NewWordConnector("a", 8)
	o := NewWordConnector("o", 8)
	sq := NewFuncWordModule("twice", func(in, out []signal.Word) {
		v, _ := in[0].Uint64()
		out[0] = signal.WordFromUint64(v*2, 8)
	}, []int{8}, []int{8}, []*Connector{a}, []*Connector{o})
	in := NewPatternInput("in", 8, []signal.Value{word(21, 8)}, 1, a)
	out := NewPrimaryOutput("out", 8, o)
	st := NewSimulation(NewCircuit("t", sq, in, out)).Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	h := out.History(st.Scheduler)
	if len(h) != 1 {
		t.Fatal("no output")
	}
	v, _ := h[0].Value.(signal.WordValue).W.Uint64()
	if v != 42 {
		t.Errorf("2*21 = %d", v)
	}
}

// TestFuncWordModuleConcurrentRuns: the in/out scratch handed to fn
// lives in each run's state, so concurrent runs of one design never
// share it and each reproduces the serial run's output history.
func TestFuncWordModuleConcurrentRuns(t *testing.T) {
	a, b, o := NewWordConnector("a", 8), NewWordConnector("b", 8), NewWordConnector("o", 8)
	add := NewFuncWordModule("add", func(in, out []signal.Word) {
		x, _ := in[0].Uint64()
		y, _ := in[1].Uint64()
		out[0] = signal.WordFromUint64(x+y, 8)
	}, []int{8, 8}, []int{8}, []*Connector{a, b}, []*Connector{o})
	ina := NewRandomPrimaryInput("ina", 8, 1, 200, 3, a)
	inb := NewRandomPrimaryInput("inb", 8, 2, 200, 5, b)
	out := NewPrimaryOutput("out", 8, o)
	s := NewSimulation(NewCircuit("t", add, ina, inb, out))
	render := func(st sim.Stats) string {
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		var sb strings.Builder
		for _, obs := range out.History(st.Scheduler) {
			fmt.Fprintf(&sb, "%d:%s ", obs.Time, obs.Value)
		}
		return sb.String()
	}
	want := render(s.Start(nil))
	for i, st := range s.StartConcurrent(make([]*estim.Setup, 4)) {
		if got := render(st); got != want {
			t.Errorf("concurrent run %d differs from the serial run:\n got  %.120s\n want %.120s", i, got, want)
		}
	}
}

func TestFuncBitModuleWrongArityPanics(t *testing.T) {
	ins := []*Connector{NewBitConnector("i")}
	o := NewBitConnector("o")
	bad := NewFuncBitModule("bad", func(in []signal.Bit) []signal.Bit {
		return nil // wrong output count
	}, ins, []*Connector{o})
	in := NewPatternInput("in", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, ins[0])
	s := NewSimulation(NewCircuit("t", bad, in))
	defer func() {
		if recover() == nil {
			t.Error("wrong function arity did not panic")
		}
	}()
	s.Start(nil)
}

// TestRecycledSchedulerResetsUnlistedModules: a module reached by tokens
// but absent from the controller's handler list never gets ResetState,
// yet on a recycled scheduler it must still start from fresh state — its
// run state is re-initialized when the run's SchedulerID changes. Here a
// stale gate would remember driving 1 and suppress the second run's
// output.
func TestRecycledSchedulerResetsUnlistedModules(t *testing.T) {
	a := NewBitConnector("a")
	b := NewBitConnector("b")
	o := NewBitConnector("o")
	g := NewGateModule("g", gate.And, []*Connector{a, b}, o)
	po := NewPrimaryOutput("po", 1, o)
	ctrl := sim.NewController()
	ctrl.Seed = func(ctx *sim.Context) {
		one := signal.BitValue{B: signal.B1}
		ctx.PostSignal(1, g.Skeleton, sim.NoSlot, 0, one, "a")
		ctx.PostSignal(1, g.Skeleton, sim.NoSlot, 1, one, "b")
	}
	sched := sim.NewScheduler()
	var first []Observation
	for run := 0; run < 2; run++ {
		st := ctrl.StartOn(sched, nil, nil)
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		h := po.History(st.Scheduler)
		if n := len(h); n == 0 || h[n-1].Value != (signal.BitValue{B: signal.B1}) {
			t.Fatalf("run %d observed %v, want it to settle at 1", run, h)
		}
		if run == 0 {
			first = slices.Clone(h) // h is sched's storage, reused by the next run
		} else if !reflect.DeepEqual(h, first) {
			t.Fatalf("recycled run observed %v, first run %v", h, first)
		}
	}
}

// Port returns the port with the given name, or nil.
func (sk *Skeleton) Port(name string) *Port {
	for _, p := range sk.ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// EstimationParams implements estim.Component.
func (sk *Skeleton) EstimationParams() []estim.Parameter {
	sk.estMu.RLock()
	defer sk.estMu.RUnlock()
	ps := make([]estim.Parameter, 0, len(sk.candidates))
	for p := range sk.candidates {
		ps = append(ps, p)
	}
	return ps
}
