package module

import (
	"sync"
	"testing"

	"repro/internal/estim"
	"repro/internal/signal"
	"repro/internal/sim"
)

func word(v uint64, w int) signal.Value { return signal.WordValue{W: signal.WordFromUint64(v, w)} }

func TestDirectionString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Error("direction names wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction empty")
	}
}

func TestConnectorPointToPoint(t *testing.T) {
	c := NewWordConnector("c", 4)
	m1 := NewRegister("r1", 4, c, nil)
	_ = m1
	m2 := NewRegister("r2", 4, nil, c)
	_ = m2
	if c.a == nil || c.b == nil {
		t.Fatal("connector ends not attached")
	}
	defer func() {
		if recover() == nil {
			t.Error("third attachment did not panic")
		}
	}()
	NewRegister("r3", 4, c, nil)
}

func TestConnectorWidthMismatchPanics(t *testing.T) {
	c := NewWordConnector("c", 4)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	NewRegister("r", 8, c, nil)
}

func TestWordConnectorValidatesPayload(t *testing.T) {
	c := NewWordConnector("c", 4)
	if err := c.Validate(word(3, 4)); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
	if err := c.Validate(word(3, 5)); err == nil {
		t.Error("wrong width accepted")
	}
	if err := c.Validate(signal.BitValue{B: signal.B1}); err == nil {
		t.Error("bit on word connector accepted")
	}
}

func TestBitConnectorValidatesPayload(t *testing.T) {
	c := NewBitConnector("c")
	if err := c.Validate(signal.BitValue{B: signal.B0}); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
	if err := c.Validate(word(0, 1)); err == nil {
		t.Error("word on bit connector accepted")
	}
}

func TestWordConnectorZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width did not panic")
		}
	}()
	NewWordConnector("c", 0)
}

func TestSkeletonPortLookup(t *testing.T) {
	r := NewRegister("r", 4, nil, nil)
	if r.Port("d") == nil || r.Port("q") == nil || r.Port("nope") != nil {
		t.Error("port lookup wrong")
	}
	if len(r.ports) != 2 {
		t.Error("port count wrong")
	}
	if r.ports[0].Module() != "r" {
		t.Error("port owner wrong")
	}
	if r.HandlerName() != "r" || r.ModuleName() != "r" {
		t.Error("names wrong")
	}
	if r.Children() != nil {
		t.Error("leaf module has children")
	}
}

// runCircuit wires a simulation and runs it to completion.
func runCircuit(t *testing.T, c *Circuit) sim.Stats {
	t.Helper()
	s := NewSimulation(c)
	st := s.Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	return st
}

func TestPatternInputToPrimaryOutput(t *testing.T) {
	conn := NewWordConnector("c", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4), word(2, 4), word(3, 4)}, 10, conn)
	out := NewPrimaryOutput("out", 4, conn)
	st := runCircuit(t, NewCircuit("top", in, out))
	h := out.History(st.Scheduler)
	if len(h) != 3 {
		t.Fatalf("observed %d values, want 3", len(h))
	}
	for i, want := range []uint64{1, 2, 3} {
		v, _ := h[i].Value.(signal.WordValue).W.Uint64()
		if v != want {
			t.Errorf("observation %d = %d, want %d", i, v, want)
		}
		if h[i].Time != sim.Time(10*(i+1)) {
			t.Errorf("observation %d at %d, want %d", i, h[i].Time, 10*(i+1))
		}
	}
}

// TestPrimaryOutputHistoryRecycled: a recycled scheduler's next run
// records into the storage of its last one and reads back only its own
// observations. ReleaseHistory empties a run's history early and leaves
// a slice History already returned readable.
func TestPrimaryOutputHistoryRecycled(t *testing.T) {
	conn := NewWordConnector("c", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4), word(2, 4), word(3, 4)}, 10, conn)
	out := NewPrimaryOutput("out", 4, conn)
	ctrl := sim.NewController(NewCircuit("top", in, out).Handlers()...)
	sched := sim.NewScheduler()
	var storage *Observation
	for run := 0; run < 2; run++ {
		if st := ctrl.StartOn(sched, nil, nil); st.Err != nil {
			t.Fatal(st.Err)
		}
		h := out.History(sched)
		if len(h) != 3 {
			t.Fatalf("run %d observed %d values, want 3", run, len(h))
		}
		if run == 0 {
			storage = &h[0]
		} else if &h[0] != storage {
			t.Errorf("run %d recorded into new storage, want the recycled run's", run)
		}
		out.ReleaseHistory(sched)
		if n := len(out.History(sched)); n != 0 {
			t.Errorf("run %d: %d observations left after ReleaseHistory", run, n)
		}
		if v, _ := h[2].Value.(signal.WordValue).W.Uint64(); v != 3 || h[2].Time != 30 {
			t.Errorf("run %d: released history ends with %v at %d, want 3 at 30", run, h[2].Value, h[2].Time)
		}
	}
}

// setupInput drives its output once per instant, for as many instants as
// its run's setup name has bytes, with that count as the value: runs with
// different setups observe different histories.
type setupInput struct {
	*Skeleton
	out *Port
}

func (m *setupInput) ProcessInputEvent(*Ctx, *PortEvent) {}
func (m *setupInput) Reset(ctx *Ctx)                     { ctx.ScheduleSelf(1, "emit", nil) }
func (m *setupInput) ProcessSelfEvent(ctx *Ctx, _ *sim.SelfToken) {
	n := len(ctx.Sim.Setup.(*estim.Setup).Name())
	ctx.Drive(m.out, word(uint64(n), 8), 0)
	if ctx.Now() < sim.Time(n) {
		ctx.ScheduleSelf(1, "emit", nil)
	}
}

// setupDesign returns a Simulation over a setupInput feeding a primary
// output, and the output.
func setupDesign() (*Simulation, *PrimaryOutput) {
	c := NewWordConnector("c", 8)
	in := &setupInput{}
	in.Skeleton = NewSkeleton("in", in)
	in.out = in.AddPort("out", Out, 8, c)
	out := NewPrimaryOutput("out", 8, c)
	return NewSimulation(NewCircuit("top", in, out)), out
}

// checkOwnHistories requires run i of stats, made under a setup named
// names[i], to have observed only its own len(names[i]) values.
func checkOwnHistories(t *testing.T, out *PrimaryOutput, stats []sim.Stats, names []string) {
	t.Helper()
	for i, st := range stats {
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		want := len(names[i])
		h := out.History(st.Scheduler)
		if len(h) != want {
			t.Errorf("run %d observed %d values, want its own %d", i, len(h), want)
		}
		for _, obs := range h {
			if obs.Value != word(uint64(want), 8) {
				t.Errorf("run %d observed %v, want only %d", i, obs.Value, want)
			}
		}
	}
}

// TestPrimaryOutputHistoryPerConcurrentRun: concurrent runs of one
// Simulation each read back only their own observations.
func TestPrimaryOutputHistoryPerConcurrentRun(t *testing.T) {
	s, out := setupDesign()
	names := []string{"a", "bcd"}
	stats := s.StartConcurrent([]*estim.Setup{estim.NewSetup(names[0]), estim.NewSetup(names[1])})
	checkOwnHistories(t, out, stats, names)
}

// TestSimulationRecyclesLaneSchedulers: a Simulation runs every lane on
// the scheduler it kept from that lane's last run, recycled (a fresh
// ID), and grows lanes on demand; each lane's history holds only its
// latest run.
func TestSimulationRecyclesLaneSchedulers(t *testing.T) {
	s, out := setupDesign()
	first := s.Start(estim.NewSetup("abcd"))
	lane0, firstID := first.Scheduler, first.Scheduler.ID()
	second := s.Start(estim.NewSetup("ab"))
	if second.Scheduler != lane0 {
		t.Error("second Start ran on a new scheduler, want lane 0's")
	}
	if second.Scheduler.ID() == firstID {
		t.Errorf("second Start kept scheduler ID %d, want a fresh one", firstID)
	}
	checkOwnHistories(t, out, []sim.Stats{second}, []string{"ab"})

	names := []string{"a", "abc", "abcde"}
	stats := s.StartConcurrent([]*estim.Setup{estim.NewSetup(names[0]), estim.NewSetup(names[1]), estim.NewSetup(names[2])})
	if stats[0].Scheduler != lane0 {
		t.Error("StartConcurrent did not reuse lane 0's scheduler")
	}
	if stats[1].Scheduler == lane0 || stats[2].Scheduler == lane0 || stats[1].Scheduler == stats[2].Scheduler {
		t.Error("StartConcurrent did not add two new lanes")
	}
	checkOwnHistories(t, out, stats, names)
}

// setupProbe records, once per run, whether the run's context carries a
// setup.
type setupProbe struct {
	*Skeleton
	mu      sync.Mutex
	nilRuns int
	setRuns int
}

func (m *setupProbe) ProcessInputEvent(*Ctx, *PortEvent) {}
func (m *setupProbe) Reset(ctx *Ctx)                     { ctx.ScheduleSelf(1, "probe", nil) }
func (m *setupProbe) ProcessSelfEvent(ctx *Ctx, _ *sim.SelfToken) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx.Sim.Setup == nil {
		m.nilRuns++
	} else {
		m.setRuns++
	}
}

// TestNilSetupReachesHandlersAsNil: a run without a setup, through Start
// or a nil entry of StartConcurrent, gives its handlers a nil
// Context.Setup rather than a typed nil *estim.Setup.
func TestNilSetupReachesHandlersAsNil(t *testing.T) {
	p := &setupProbe{}
	p.Skeleton = NewSkeleton("probe", p)
	s := NewSimulation(NewCircuit("top", p))
	s.Start(nil)
	if p.nilRuns != 1 || p.setRuns != 0 {
		t.Errorf("Start(nil): %d runs saw a nil setup and %d a non-nil one, want 1 and 0", p.nilRuns, p.setRuns)
	}
	p.nilRuns, p.setRuns = 0, 0
	s.StartConcurrent([]*estim.Setup{nil, estim.NewSetup("s")})
	if p.nilRuns != 1 || p.setRuns != 1 {
		t.Errorf("StartConcurrent(nil, setup): %d runs saw a nil setup and %d a non-nil one, want 1 and 1", p.nilRuns, p.setRuns)
	}
}

func TestRegisterDelaysValue(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(9, 4)}, 5, c1)
	reg := NewRegister("reg", 4, c1, c2)
	out := NewPrimaryOutput("out", 4, c2)
	st := runCircuit(t, NewCircuit("top", in, reg, out))
	h := out.History(st.Scheduler)
	if len(h) != 1 || h[0].Time != 6 {
		t.Fatalf("register output = %+v, want value at t=6", h)
	}
}

func TestMultComputesProduct(t *testing.T) {
	a := NewWordConnector("a", 8)
	b := NewWordConnector("b", 8)
	o := NewWordConnector("o", 16)
	ina := NewPatternInput("ina", 8, []signal.Value{word(12, 8)}, 1, a)
	inb := NewPatternInput("inb", 8, []signal.Value{word(11, 8)}, 1, b)
	mult := NewMult("mult", 8, a, b, o)
	out := NewPrimaryOutput("out", 16, o)
	st := runCircuit(t, NewCircuit("top", ina, inb, mult, out))
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no product observed")
	}
	v, ok := h[len(h)-1].Value.(signal.WordValue).W.Uint64()
	if !ok || v != 132 {
		t.Errorf("product = %d, want 132", v)
	}
}

func TestMultWidthGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 33 did not panic")
		}
	}()
	NewMult("m", 33, nil, nil, nil)
}

func TestClockGenAndCounter(t *testing.T) {
	clk := NewBitConnector("clk")
	q := NewWordConnector("q", 8)
	gen := NewClockGen("gen", 5, 4, clk)
	cnt := NewCounter("cnt", 8, clk, q)
	out := NewPrimaryOutput("out", 8, q)
	st := runCircuit(t, NewCircuit("top", gen, cnt, out))
	h := out.History(st.Scheduler)
	if len(h) != 4 {
		t.Fatalf("counter emitted %d values over 4 clock cycles, want 4", len(h))
	}
	last, _ := h[len(h)-1].Value.(signal.WordValue).W.Uint64()
	if last != 4 {
		t.Errorf("final count = %d, want 4", last)
	}
}

func TestFanoutPerBranchDelays(t *testing.T) {
	src := NewWordConnector("src", 4)
	b1 := NewWordConnector("b1", 4)
	b2 := NewWordConnector("b2", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(5, 4)}, 1, src)
	fo := NewFanout("fo", 4, src, []*Connector{b1, b2}, []sim.Time{0, 7})
	o1 := NewPrimaryOutput("o1", 4, b1)
	o2 := NewPrimaryOutput("o2", 4, b2)
	st := runCircuit(t, NewCircuit("top", in, fo, o1, o2))
	h1, h2 := o1.History(st.Scheduler), o2.History(st.Scheduler)
	if len(h1) != 1 || len(h2) != 1 {
		t.Fatal("fanout branch missing event")
	}
	if h1[0].Time != 1 || h2[0].Time != 8 {
		t.Errorf("branch times = %d, %d; want 1, 8", h1[0].Time, h2[0].Time)
	}
}

func TestFanoutDelayCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched delays did not panic")
		}
	}()
	NewFanout("fo", 4, nil, []*Connector{nil, nil}, []sim.Time{1})
}

func TestDelayModule(t *testing.T) {
	a := NewWordConnector("a", 4)
	b := NewWordConnector("b", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(3, 4)}, 1, a)
	d := NewDelay("d", 4, 9, a, b)
	out := NewPrimaryOutput("out", 4, b)
	st := runCircuit(t, NewCircuit("top", in, d, out))
	h := out.History(st.Scheduler)
	if len(h) != 1 || h[0].Time != 10 {
		t.Errorf("delayed event at %v, want t=10", h)
	}
}

func TestConstInput(t *testing.T) {
	c := NewWordConnector("c", 4)
	in := NewConstInput("k", 4, word(13, 4), c)
	out := NewPrimaryOutput("out", 4, c)
	st := runCircuit(t, NewCircuit("top", in, out))
	h := out.History(st.Scheduler)
	if len(h) != 1 {
		t.Fatal("constant not observed")
	}
	v, _ := h[0].Value.(signal.WordValue).W.Uint64()
	if v != 13 {
		t.Errorf("constant = %d, want 13", v)
	}
}

func TestRandomPrimaryInputDeterministic(t *testing.T) {
	run := func() []uint64 {
		c := NewWordConnector("c", 16)
		in := NewRandomPrimaryInput("in", 16, 42, 10, 3, c)
		out := NewPrimaryOutput("out", 16, c)
		st := runCircuit(t, NewCircuit("top", in, out))
		var vals []uint64
		for _, obs := range out.History(st.Scheduler) {
			v, _ := obs.Value.(signal.WordValue).W.Uint64()
			vals = append(vals, v)
		}
		return vals
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("pattern counts = %d, %d; want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at pattern %d", i)
		}
	}
}

func TestDrivingInputPortPanics(t *testing.T) {
	c := NewWordConnector("c", 4)
	reg := NewRegister("r", 4, c, nil)
	sched := sim.NewScheduler()
	ctx := sched.NewContext()
	mctx := &Ctx{Sim: ctx, sk: reg.Skeleton}
	defer func() {
		if recover() == nil {
			t.Error("driving input port did not panic")
		}
	}()
	mctx.Drive(reg.Port("d"), word(0, 4), 0)
}

func TestDrivingForeignPortPanics(t *testing.T) {
	r1 := NewRegister("r1", 4, nil, nil)
	r2 := NewRegister("r2", 4, nil, nil)
	sched := sim.NewScheduler()
	mctx := &Ctx{Sim: sched.NewContext(), sk: r1.Skeleton}
	defer func() {
		if recover() == nil {
			t.Error("driving foreign port did not panic")
		}
	}()
	mctx.Drive(r2.Port("q"), word(0, 4), 0)
}

func TestDanglingConnectorDropsEvent(t *testing.T) {
	// A register whose output connector has no peer: events vanish
	// harmlessly.
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4) // no reader
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4)}, 1, c1)
	reg := NewRegister("reg", 4, c1, c2)
	st := runCircuit(t, NewCircuit("top", in, reg))
	if st.Err != nil {
		t.Fatal(st.Err)
	}
}

func TestCircuitHierarchyLeaves(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	in := NewPatternInput("in", 4, nil, 1, c1)
	out := NewPrimaryOutput("out", 4, c1)
	inner := NewCircuit("inner", in)
	top := NewCircuit("top", inner, out)
	leaves := top.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(leaves))
	}
	names := map[string]bool{}
	for _, l := range leaves {
		names[l.ModuleName()] = true
	}
	if !names["in"] || !names["out"] {
		t.Errorf("leaf names = %v", names)
	}
}

// Module returns the skeleton of the module being handled.
func (c *Ctx) Module() *Skeleton { return c.sk }
