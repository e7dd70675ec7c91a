package module

import (
	"math/rand"
	"reflect"
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
	runCircuit(t, NewCircuit("top", ina, inb, g, out))
	h := out.LastHistory()
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
	runCircuit(t, NewCircuit("top", in, g, out))
	if got := len(out.LastHistory()); got != 2 {
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
	runCircuit(t, NewCircuit("top", in, split, nm, join, out))

	h := out.LastHistory()
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
	runCircuit(t, NewCircuit("top", p0, p1, j, out))
	h := out.LastHistory()
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
	runCircuit(t, NewCircuit("top", p0, j, out))
	h := out.LastHistory()
	if len(h) == 0 {
		t.Fatal("no word")
	}
	w := h[0].Value.(signal.WordValue).W
	if w.Bit(1) != signal.BX {
		t.Errorf("undriven bit = %v, want X", w.Bit(1))
	}
}

// TestNetlistModuleEventAllocationFree: once a NetlistModule's run state
// exists, an input event evaluates the netlist and drives its changed
// outputs without allocating. The ports are unconnected, so the drives
// end at the module.
func TestNetlistModuleEventAllocationFree(t *testing.T) {
	nl := gate.RandomCombinational(6, 120, 4, 3)
	m := NewNetlistModule("nl", nl, make([]*Connector, 6), make([]*Connector, 4))
	ctx := &Ctx{Sim: sim.NewScheduler().NewContext(), sk: m.Skeleton}
	ev := &PortEvent{Port: m.ins[0]}
	levels := [...]signal.Value{signal.BitValue{B: signal.B0}, signal.BitValue{B: signal.B1}}
	in, toggles := ctx.state().in, 0
	event := func() {
		toggles++
		for i := range m.ins {
			in[i] = levels[toggles>>i&1]
		}
		m.ProcessInputEvent(ctx, ev)
	}
	event()
	outs := ctx.state().out[len(m.ins):]
	before := append([]signal.Value(nil), outs...)
	if n := testing.AllocsPerRun(100, event); n != 0 {
		t.Errorf("%v allocs per input event, want 0", n)
	}
	changed := false
	for i := range outs {
		changed = changed || outs[i] != before[i]
	}
	if !changed {
		t.Error("no output changed; the drive path went unmeasured")
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
	var vals []signal.Value
	for _, v := range []uint64{0o25, 0o07, 0o70, 0o33} {
		vals = append(vals, word(v, width))
	}
	vals = append(vals, signal.WordValue{W: signal.UnknownWord(width)})
	nm := NewNetlistModule("rca", gate.RippleAdder(3), bitConns, outBits)
	out := NewPrimaryOutput("out", 4, oconn)
	c := NewCircuit("top",
		NewPatternInput("in", width, vals, 10, wconn),
		NewWordToBits("split", width, wconn, bitConns),
		nm,
		NewBitsToWord("join", 4, outBits, oconn),
		out)
	ctrl := sim.NewController(c.Handlers()...)
	run := func(sched *sim.Scheduler) ([]Observation, *gate.LaneEvaluator) {
		st := ctrl.StartOn(sched, nil, nil)
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		h := out.History(st.Scheduler)
		out.ReleaseHistory(st.Scheduler)
		ns, _ := nm.stateFor(sched.NewContext()).user.(*netlistState)
		if ns == nil {
			t.Fatal("the netlist module kept no state")
		}
		return h, ns.ev
	}
	fresh, _ := run(sim.NewScheduler())
	if len(fresh) == 0 {
		t.Fatal("no outputs observed")
	}
	sched := sim.NewScheduler()
	first, ev := run(sched)
	for i := 0; i < 2; i++ {
		again, evAgain := run(sched)
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("recycled run %d observed %v, a new scheduler %v", i+1, again, fresh)
		}
		if evAgain != ev {
			t.Fatalf("recycled run %d built a new evaluator", i+1)
		}
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatalf("first run observed %v, a new scheduler %v", first, fresh)
	}
}
