package module

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

func TestGateModuleEval(t *testing.T) {
	a := NewBitConnector("a")
	b := NewBitConnector("b")
	o := NewBitConnector("o")
	ina := NewPatternInput("ina", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, a)
	inb := NewPatternInput("inb", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, b)
	g := NewGateModule("g", gate.Nand, []*Connector{a, b}, o)
	out := NewPrimaryOutput("out", 1, o)
	st := runCircuit(t, NewCircuit("top", ina, inb, g, out))
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no gate output")
	}
	if got := h[len(h)-1].Value.(signal.BitValue).B; got != signal.B0 {
		t.Errorf("NAND(1,1) = %v, want 0", got)
	}
}

func TestGateModuleSuppressesUnchangedOutput(t *testing.T) {
	a := NewBitConnector("a")
	o := NewBitConnector("o")
	// Input toggles 0,0,1: BUF output should fire for the first 0 (X->0
	// counts as a change from the unset state) and then for the 1.
	seq := []signal.Value{
		signal.BitValue{B: signal.B0},
		signal.BitValue{B: signal.B0},
		signal.BitValue{B: signal.B1},
	}
	in := NewPatternInput("in", 1, seq, 1, a)
	g := NewGateModule("g", gate.Buf, []*Connector{a}, o)
	out := NewPrimaryOutput("out", 1, o)
	st := runCircuit(t, NewCircuit("top", in, g, out))
	if got := len(out.History(st.Scheduler)); got != 2 {
		t.Errorf("gate fired %d times, want 2 (event-driven suppression)", got)
	}
}

func TestNetlistModuleMatchesDirectEval(t *testing.T) {
	nl := gate.RippleAdder(3)
	width := 6
	// Drive the 6 inputs from a word via WordToBits, read the 4 outputs
	// via BitsToWord — a full mixed-level pipeline.
	wconn := NewWordConnector("w", width)
	bitConns := make([]*Connector, width)
	for i := range bitConns {
		bitConns[i] = NewBitConnector("b" + string(rune('0'+i)))
	}
	outBits := make([]*Connector, 4)
	for i := range outBits {
		outBits[i] = NewBitConnector("ob" + string(rune('0'+i)))
	}
	oconn := NewWordConnector("o", 4)

	r := rand.New(rand.NewSource(5))
	var vals []signal.Value
	var raw []uint64
	for i := 0; i < 20; i++ {
		v := uint64(r.Intn(64))
		raw = append(raw, v)
		vals = append(vals, word(v, width))
	}
	in := NewPatternInput("in", width, vals, 10, wconn)
	split := NewWordToBits("split", width, wconn, bitConns)
	nm := NewNetlistModule("rca", nl, bitConns, outBits)
	join := NewBitsToWord("join", 4, outBits, oconn)
	out := NewPrimaryOutput("out", 4, oconn)
	st := runCircuit(t, NewCircuit("top", in, split, nm, join, out))

	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no outputs")
	}
	// The final stable observation per pattern instant must equal the sum
	// a+b where a = low 3 bits, b = high 3 bits. Check the last value
	// observed before each next pattern time.
	byTime := map[int64]uint64{}
	for _, obs := range h {
		if wv, ok := obs.Value.(signal.WordValue); ok {
			if v, known := wv.W.Uint64(); known {
				byTime[int64(obs.Time)] = v
			}
		}
	}
	checked := 0
	for i, v := range raw {
		a := v & 7
		b := (v >> 3) & 7
		// Pattern i issued at t=10*(i+1); netlist output settles within
		// the same region (delays: split 0, netlist 1, join 0).
		tEmit := int64(10*(i+1)) + 1
		got, ok := byTime[tEmit]
		if !ok {
			continue // output unchanged from previous pattern
		}
		if got != a+b {
			t.Errorf("pattern %d: %d+%d = %d, want %d", i, a, b, got, a+b)
		}
		checked++
	}
	if checked < 10 {
		t.Errorf("only %d patterns produced distinct sums; wiring suspect", checked)
	}
}

func TestNetlistModulePortCountMismatchPanics(t *testing.T) {
	nl := gate.RippleAdder(2)
	defer func() {
		if recover() == nil {
			t.Error("port mismatch did not panic")
		}
	}()
	NewNetlistModule("bad", nl, []*Connector{nil}, []*Connector{nil})
}

func TestWordToBitsWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	NewWordToBits("w2b", 4, nil, []*Connector{nil})
}

func TestBitsToWordAssembly(t *testing.T) {
	ins := []*Connector{NewBitConnector("i0"), NewBitConnector("i1")}
	o := NewWordConnector("o", 2)
	p0 := NewPatternInput("p0", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, ins[0])
	p1 := NewPatternInput("p1", 1, []signal.Value{signal.BitValue{B: signal.B0}}, 2, ins[1])
	j := NewBitsToWord("j", 2, ins, o)
	out := NewPrimaryOutput("out", 2, o)
	st := runCircuit(t, NewCircuit("top", p0, p1, j, out))
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no assembled word")
	}
	last := h[len(h)-1].Value.(signal.WordValue).W
	if last.Bit(0) != signal.B1 || last.Bit(1) != signal.B0 {
		t.Errorf("assembled word = %v", last)
	}
}

func TestBitsToWordUnknownBitsAreX(t *testing.T) {
	ins := []*Connector{NewBitConnector("i0"), NewBitConnector("i1")}
	o := NewWordConnector("o", 2)
	p0 := NewPatternInput("p0", 1, []signal.Value{signal.BitValue{B: signal.B1}}, 1, ins[0])
	j := NewBitsToWord("j", 2, ins, o)
	out := NewPrimaryOutput("out", 2, o)
	st := runCircuit(t, NewCircuit("top", p0, j, out))
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no word")
	}
	w := h[0].Value.(signal.WordValue).W
	if w.Bit(1) != signal.BX {
		t.Errorf("undriven bit = %v, want X", w.Bit(1))
	}
}

// netlistModuleCtx returns a NetlistModule over nl with unconnected
// ports, so the drives end at the module, and a context delivering to it
// on a new scheduler.
func netlistModuleCtx(nl *gate.Netlist) (*NetlistModule, *Ctx) {
	m := NewNetlistModule("nl", nl, make([]*Connector, len(nl.Inputs())), make([]*Connector, len(nl.Outputs())))
	return m, &Ctx{Sim: sim.NewScheduler().NewContext(), sk: m.Skeleton}
}

// TestNetlistModuleEventAllocationFree: once a NetlistModule's run state
// exists, an input event evaluates the netlist and drives its changed
// outputs without allocating, on the lane path (six inputs) and from a
// truth table (three inputs).
func TestNetlistModuleEventAllocationFree(t *testing.T) {
	for _, nl := range []*gate.Netlist{gate.RandomCombinational(6, 120, 4, 3), gate.RandomCombinational(3, 40, 2, 3)} {
		m, ctx := netlistModuleCtx(nl)
		ev := &PortEvent{Port: m.ins[0]}
		levels := [...]signal.Value{signal.BitValue{B: signal.B0}, signal.BitValue{B: signal.B1}}
		in, outs := ctx.state().in, ctx.state().out[len(m.ins):]
		before := make([]signal.Value, len(outs))
		toggles, changed := 0, false
		event := func() {
			toggles++
			for i := range m.ins {
				in[i] = levels[toggles>>i&1]
			}
			copy(before, outs)
			m.ProcessInputEvent(ctx, ev)
			for i := range outs {
				changed = changed || outs[i] != before[i]
			}
		}
		event()
		changed = false
		if n := testing.AllocsPerRun(100, event); n != 0 {
			t.Errorf("%s: %v allocs per input event, want 0", nl.Name, n)
		}
		if !changed {
			t.Errorf("%s: no output changed; the drive path went unmeasured", nl.Name)
		}
	}
}

// TestTabulatedNetlistModuleMatchesLaneEvaluator: a NetlistModule of at
// most three inputs answers from its truth table, and after every input
// event, in a shuffled order over every four-valued input combination
// with repeats, its last driven outputs are the ones a fresh lane
// evaluator computes for the combination. An output never driven reads
// Z, the sentinel the lane path starts from.
func TestTabulatedNetlistModuleMatchesLaneEvaluator(t *testing.T) {
	nls := []*gate.Netlist{gate.HalfAdderIP()}
	for seed := int64(1); seed <= 4; seed++ {
		nls = append(nls, gate.RandomCombinational(3, 40, 2, seed), gate.RandomCombinational(2, 12, 1, seed))
	}
	for _, nl := range nls {
		n := len(nl.Inputs())
		combos := make([][]signal.Bit, 1<<(2*n))
		for c := range combos {
			combos[c] = make([]signal.Bit, n)
			for i := range combos[c] {
				combos[c][i] = signal.Bit(c >> (2 * i) & 3)
			}
		}
		le, err := nl.NewLaneEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		if err := le.EvalBatch(combos); err != nil {
			t.Fatal(err)
		}
		m, ctx := netlistModuleCtx(nl)
		in, outs := ctx.state().in, ctx.state().out[n:]
		want := make([]signal.Bit, len(nl.Outputs()))
		r := rand.New(rand.NewSource(int64(len(nl.Name))))
		order := append(r.Perm(len(combos)), r.Perm(len(combos))...)
		for _, c := range order {
			for i, b := range combos[c] {
				in[i] = signal.BitValue{B: b}
			}
			m.ProcessInputEvent(ctx, &PortEvent{Port: m.ins[0]})
			if _, ok := ctx.State().(tableIndex); !ok {
				t.Fatalf("%s: input event left state %T, want a tableIndex", nl.Name, ctx.State())
			}
			le.ReadOutputs(want, c)
			for j, v := range outs {
				got := signal.BZ
				if v != nil {
					got = v.(signal.BitValue).B
				}
				if got != want[j] {
					t.Fatalf("%s inputs %s: output %d is %v, lane evaluator %v",
						nl.Name, signal.WordFromBits(combos[c]), j, got, want[j])
				}
			}
		}
	}
}

// runNetlistModule returns a NetlistModule over nl fed the given words
// (one input bit each) and a function that runs the circuit on a
// scheduler and returns a copy of the observed outputs. The function
// may run on several goroutines at once, each on its own scheduler.
func runNetlistModule(t *testing.T, nl *gate.Netlist, vals []signal.Value) (*NetlistModule, func(*sim.Scheduler) []Observation) {
	width, nOut := len(nl.Inputs()), len(nl.Outputs())
	wconn := NewWordConnector("w", width)
	bitConns := make([]*Connector, width)
	for i := range bitConns {
		bitConns[i] = NewBitConnector("b" + string(rune('0'+i)))
	}
	outBits := make([]*Connector, nOut)
	for i := range outBits {
		outBits[i] = NewBitConnector("ob" + string(rune('0'+i)))
	}
	oconn := NewWordConnector("o", nOut)
	nm := NewNetlistModule("nl", nl, bitConns, outBits)
	out := NewPrimaryOutput("out", nOut, oconn)
	c := NewCircuit("top",
		NewPatternInput("in", width, vals, 10, wconn),
		NewWordToBits("split", width, wconn, bitConns),
		nm,
		NewBitsToWord("join", nOut, outBits, oconn),
		out)
	ctrl := sim.NewController(c.Handlers()...)
	return nm, func(sched *sim.Scheduler) []Observation {
		st := ctrl.StartOn(sched, nil, nil)
		if st.Err != nil {
			t.Error(st.Err)
			return nil
		}
		// The history is sched's storage: copy it before sched runs again.
		return slices.Clone(out.History(st.Scheduler))
	}
}

// TestNetlistModuleRecycledRunMatchesFresh: a NetlistModule keeps its
// evaluator when its scheduler is recycled, and the recycled run still
// matches a run on a new scheduler observation for observation. The
// last pattern is all X, and so are the outputs of a run's first
// evaluation (one input bit known), so a kept state that still
// remembered the previous run's outputs would suppress the recycled
// run's first drive.
func TestNetlistModuleRecycledRunMatchesFresh(t *testing.T) {
	const width = 6
	var vals []signal.Value
	for _, v := range []uint64{0o25, 0o07, 0o70, 0o33} {
		vals = append(vals, word(v, width))
	}
	vals = append(vals, signal.WordValue{W: signal.UnknownWord(width)})
	nm, run := runNetlistModule(t, gate.RippleAdder(3), vals)
	evaluator := func(sched *sim.Scheduler) *gate.LaneEvaluator {
		ns, _ := nm.stateFor(sched.NewContext()).user.(*netlistState)
		if ns == nil {
			t.Fatal("the netlist module kept no state")
		}
		return ns.ev
	}
	fresh := run(sim.NewScheduler())
	if len(fresh) == 0 {
		t.Fatal("no outputs observed")
	}
	sched := sim.NewScheduler()
	first := run(sched)
	ev := evaluator(sched)
	for i := 0; i < 2; i++ {
		again := run(sched)
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("recycled run %d observed %v, a new scheduler %v", i+1, again, fresh)
		}
		if evaluator(sched) != ev {
			t.Fatalf("recycled run %d built a new evaluator", i+1)
		}
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatalf("first run observed %v, a new scheduler %v", first, fresh)
	}
}

// TestTabulatedNetlistModuleRecycledRunMatchesFresh is the recycling
// check of a tabulated module (a 1-bit adder, two inputs), whose run
// state is only the input combination of its last evaluation: a run
// ending on all-X inputs must not suppress the next run's first drive of
// all-X outputs.
func TestTabulatedNetlistModuleRecycledRunMatchesFresh(t *testing.T) {
	vals := []signal.Value{word(1, 2), word(3, 2), word(0, 2), signal.WordValue{W: signal.UnknownWord(2)}}
	nm, run := runNetlistModule(t, gate.RippleAdder(1), vals)
	fresh := run(sim.NewScheduler())
	if len(fresh) == 0 {
		t.Fatal("no outputs observed")
	}
	sched := sim.NewScheduler()
	for i := 0; i < 3; i++ {
		got := run(sched)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("run %d on one scheduler observed %v, a new scheduler %v", i+1, got, fresh)
		}
		if _, ok := nm.stateOn(sched).(tableIndex); !ok {
			t.Fatalf("run %d left state %T, want a tableIndex", i+1, nm.stateOn(sched))
		}
	}
}

// TestTabulatedNetlistModuleConcurrentFirstEvaluation: schedulers on
// several goroutines evaluate a tabulated module for the first time at
// once; the table is built once and every run observes what a serial
// run does.
func TestTabulatedNetlistModuleConcurrentFirstEvaluation(t *testing.T) {
	vals := []signal.Value{word(5, 3), word(2, 3), word(7, 3), signal.WordValue{W: signal.UnknownWord(3)}}
	_, run := runNetlistModule(t, gate.RandomCombinational(3, 40, 2, 5), vals)
	got := make([][]Observation, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(sim.NewScheduler())
		}(i)
	}
	wg.Wait()
	want := run(sim.NewScheduler())
	if len(want) == 0 {
		t.Fatal("no outputs observed")
	}
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("concurrent run %d observed %v, a serial run %v", i, g, want)
		}
	}
}
