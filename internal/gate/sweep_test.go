package gate

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/signal"
)

// allStuckAt returns sa0 and sa1 on every net of nl, so faults on
// primary inputs, primary outputs and both polarities of one net are all
// present.
func allStuckAt(nl *Netlist) []Fault {
	faults := make([]Fault, 0, 2*nl.NumNets())
	for id := 0; id < nl.NumNets(); id++ {
		faults = append(faults, Fault{NetID(id), signal.B0}, Fault{NetID(id), signal.B1})
	}
	return faults
}

// checkSweep compares one sweep against scalar SetFault + Eval: the
// fault-free machine is visited first, the other visited machines come
// in increasing order, each matches the scalar oracle and differs from
// the fault-free outputs, and every machine not visited evaluates to
// the fault-free outputs under the oracle.
func checkSweep(t *testing.T, nl *Netlist, inputs []signal.Bit, faults []Fault) {
	t.Helper()
	sw, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	scalar := func(i int) signal.Word {
		ref.ClearFaults()
		if i >= 0 {
			ref.SetFault(faults[i])
		}
		want, err := ref.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return signal.WordFromBits(want)
	}
	good := scalar(-1)
	visited := make([]bool, len(faults))
	last := -2
	err = sw.SweepStuckAt(inputs, faults, func(i int, out []signal.Bit) {
		if i <= last || i >= len(faults) || last == -2 && i != -1 {
			t.Fatalf("%s: visited machine %d after %d", nl.Name, i, last)
		}
		last = i
		name := "fault-free"
		if i >= 0 {
			visited[i] = true
			name = faults[i].Symbol(nl)
		}
		got, want := signal.WordFromBits(out), scalar(i)
		if !got.Equal(want) {
			t.Fatalf("%s inputs %s machine %s: sweep %s, scalar %s",
				nl.Name, signal.WordFromBits(inputs), name, got, want)
		}
		if i >= 0 && got.Equal(good) {
			t.Fatalf("%s inputs %s machine %s: visited with the fault-free outputs %s",
				nl.Name, signal.WordFromBits(inputs), name, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last == -2 {
		t.Fatalf("%s: the fault-free machine was not visited", nl.Name)
	}
	for i, v := range visited {
		if !v {
			if got := scalar(i); !got.Equal(good) {
				t.Fatalf("%s inputs %s machine %s: not visited, scalar %s differs from the fault-free %s",
					nl.Name, signal.WordFromBits(inputs), faults[i].Symbol(nl), got, good)
			}
		}
	}
}

func TestSweepStuckAtMatchesScalar(t *testing.T) {
	levels := [...]signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ}
	for seed := int64(1); seed <= 6; seed++ {
		nl := RandomCombinational(3, 40, 3, seed)
		nl.MarkOutput(nl.Inputs()[1]) // a primary input read straight back
		faults := allStuckAt(nl)      // 2·(3+40) faults: two passes
		in := make([]signal.Bit, 3)
		for c := 0; c < 64; c++ {
			for i := range in {
				in[i] = levels[c>>(2*i)&3]
			}
			checkSweep(t, nl, in, faults)
		}
	}
	// Hand-built and library netlists, every binary input pattern.
	for _, nl := range []*Netlist{HalfAdderIP(), C17(), ArrayMultiplier(3)} {
		for v := uint64(0); v < 1<<len(nl.Inputs()); v++ {
			checkSweep(t, nl, nl.InputWord(v), allStuckAt(nl))
		}
	}
}

// TestSweepStuckAtZRule pins the four-valued edge cases: a Z on a gate
// input reads as X, a Z primary input wired to an output reads back Z in
// every lane that does not force it, undriven outputs read X, and X/Z
// stuck levels are honoured like Eval honours them.
func TestSweepStuckAtZRule(t *testing.T) {
	nl := NewNetlist("zrule")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	nl.MarkOutput(a)
	nl.MarkOutput(nl.AddGate(Buf, "buf", a))
	nl.MarkOutput(nl.AddGate(Or, "or", a, b))
	nl.MarkOutput(nl.AddNet("dangling"))
	faults := []Fault{
		{a, signal.B1}, {a, signal.B0}, {b, signal.B1},
		{a, signal.BX}, {a, signal.BZ}, {nl.Net("dangling"), signal.B1},
	}
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	err = ev.SweepStuckAt([]signal.Bit{signal.BZ, signal.B0}, faults, func(i int, out []signal.Bit) {
		got[i] = signal.WordFromBits(out).String()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Word strings are MSB-first: dangling, or, buf, a. Machines 4 (a
	// stuck at Z) and 5 (the undriven net stuck at 1) keep the
	// fault-free XXXZ, so the sweep does not visit them.
	want := map[int]string{-1: "XXXZ", 0: "X111", 1: "X000", 2: "X1XZ", 3: "XXXX"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visited %v, want %v", got, want)
	}
	checkSweep(t, nl, []signal.Bit{signal.BZ, signal.B0}, faults)
}

func TestSweepStuckAtNoFaults(t *testing.T) {
	nl := HalfAdderIP()
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = ev.SweepStuckAt(nl.InputWord(3), nil, func(i int, out []signal.Bit) {
		calls++
		if i != -1 || signal.WordFromBits(out).String() != "10" {
			t.Errorf("visit(%d, %v)", i, out)
		}
	})
	if err != nil || calls != 1 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestSweepStuckAtRejects(t *testing.T) {
	nl := HalfAdderIP()
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	nop := func(int, []signal.Bit) {}
	if err := ev.SweepStuckAt(make([]signal.Bit, 3), nil, nop); err == nil {
		t.Error("wrong input width accepted")
	}
	if err := ev.SweepStuckAt(nl.InputWord(0), []Fault{{NetID(99), signal.B0}}, nop); err == nil {
		t.Error("fault on an invalid net accepted")
	}
	if err := ev.InjectStuckAt(Fault{nl.Inputs()[0], signal.B1}); err != nil {
		t.Fatal(err)
	}
	if err := ev.SweepStuckAt(nl.InputWord(0), nil, nop); err == nil {
		t.Error("sweep with an injected fault accepted")
	}
	ev.ClearStuckAt()
	if err := ev.SweepStuckAt(nl.InputWord(0), nil, nop); err != nil {
		t.Errorf("sweep after ClearStuckAt: %v", err)
	}
}

// TestSweepStuckAtLeavesEvalState checks that a sweep leaves no force
// behind on the evaluator: batches evaluated after it, fault-free and
// with an injected fault, still match the scalar reference.
func TestSweepStuckAtLeavesEvalState(t *testing.T) {
	nl := ArrayMultiplier(2)
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if err := le.SweepStuckAt(nl.InputWord(0xf), allStuckAt(nl), func(int, []signal.Bit) {}); err != nil {
		t.Fatal(err)
	}
	patterns := allLevels(len(nl.Inputs()))[:Lanes]
	checkInjected(t, le, patterns, nil)
	checkInjected(t, le, patterns, &Fault{nl.Net("pp0_1"), signal.B1})
}

// TestSweepStuckAtAllocationFree: once the evaluator's scratch exists, a
// sweep of any length allocates nothing.
func TestSweepStuckAtAllocationFree(t *testing.T) {
	nl := ArrayMultiplier(4)
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	faults := allStuckAt(nl)
	in := nl.InputWord(0xa7)
	detected := 0
	var good []signal.Bit
	visit := func(i int, out []signal.Bit) {
		if i < 0 {
			good = out
			return
		}
		if !signal.WordFromBits(out).Equal(signal.WordFromBits(good)) {
			detected++
		}
	}
	if err := ev.SweepStuckAt(in, faults, visit); err != nil {
		t.Fatal(err)
	}
	if detected == 0 {
		t.Fatal("no fault excited")
	}
	if n := testing.AllocsPerRun(20, func() { _ = ev.SweepStuckAt(in, faults, visit) }); n != 0 {
		t.Errorf("%v allocs per sweep, want 0", n)
	}
}

// checkInjected evaluates patterns (at most Lanes) on le with f
// injected, or fault-free when f is nil, and compares every lane with
// scalar SetFault + Eval. It also checks DiffLanes against a fault-free
// batch: a lane is set exactly when some output is known in both
// machines and differs.
func checkInjected(t *testing.T, le *LaneEvaluator, patterns [][]signal.Bit, f *Fault) {
	t.Helper()
	nl := le.Netlist()
	good, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if err := good.EvalBatch(patterns); err != nil {
		t.Fatal(err)
	}
	ref, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	le.ClearStuckAt()
	name := "fault-free"
	if f != nil {
		if err := le.InjectStuckAt(*f); err != nil {
			t.Fatal(err)
		}
		name = f.Symbol(nl)
	}
	if err := le.EvalBatch(patterns); err != nil {
		t.Fatal(err)
	}
	diff := le.DiffLanes(good.OutputPlanes(nil))
	got := make([]signal.Bit, len(nl.Outputs()))
	for l, p := range patterns {
		ref.ClearFaults()
		wantGood, err := ref.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			ref.SetFault(*f)
		}
		want, err := ref.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		le.ReadOutputs(got, l)
		if !signal.WordFromBits(got).Equal(signal.WordFromBits(want)) {
			t.Fatalf("%s inputs %s machine %s lane %d: lanes %s, scalar %s",
				nl.Name, signal.WordFromBits(p), name, l, signal.WordFromBits(got), signal.WordFromBits(want))
		}
		detected := false
		for j := range want {
			detected = detected || want[j].Known() && wantGood[j].Known() && want[j] != wantGood[j]
		}
		if diff>>l&1 == 1 != detected {
			t.Fatalf("%s inputs %s machine %s lane %d: DiffLanes bit %d, scalar detection %v",
				nl.Name, signal.WordFromBits(p), name, l, diff>>l&1, detected)
		}
	}
	if diff>>len(patterns) != 0 {
		t.Fatalf("%s machine %s: DiffLanes %#x sets lanes past %d patterns", nl.Name, name, diff, len(patterns))
	}
}

// FuzzSweepStuckAt differentially tests the lane kernel's fault paths
// against the scalar reference on random netlists. The sweep runs one
// four-valued input over a seed-shuffled fault list long enough for
// several passes that holds sa0 and sa1 on every net (so primary inputs
// and outputs are always covered). Then a seeded batch of four-valued
// patterns checks EvalBatch and DiffLanes under injected faults. Flags
// add a primary input read straight back as an output and an undriven
// output.
func FuzzSweepStuckAt(f *testing.F) {
	f.Add(uint8(3), uint8(40), uint8(2), int64(1), uint64(0x1b), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1), int64(7), uint64(0xff), uint8(3))
	f.Add(uint8(6), uint8(119), uint8(3), int64(-5), uint64(0xe4e4), uint8(1))
	f.Fuzz(func(t *testing.T, nIn, nGates, nOut uint8, seed int64, levels uint64, flags uint8) {
		nl := RandomCombinational(2+int(nIn%6), 1+int(nGates%120), 1+int(nOut%4), seed)
		if flags&1 != 0 {
			nl.MarkOutput(nl.Inputs()[0])
		}
		if flags&2 != 0 {
			nl.MarkOutput(nl.AddNet("dangling"))
		}
		inputs := make([]signal.Bit, len(nl.Inputs()))
		for i := range inputs {
			inputs[i] = signal.Bit(levels >> (2 * i) & 3)
		}
		universe := allStuckAt(nl)
		var faults []Fault
		for len(faults) <= 2*faultsPerPass {
			faults = append(faults, universe...)
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
		checkSweep(t, nl, inputs, faults)

		patterns := [][]signal.Bit{inputs}
		for n := 1 + r.Intn(Lanes); len(patterns) < n; {
			p := make([]signal.Bit, len(inputs))
			for i := range p {
				p[i] = signal.Bit(r.Intn(4))
			}
			patterns = append(patterns, p)
		}
		le, err := nl.NewLaneEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults[:4] {
			checkInjected(t, le, patterns, &f)
		}
	})
}
