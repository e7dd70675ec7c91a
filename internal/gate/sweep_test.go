package gate

import (
	"math/rand"
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

// checkSweep compares every machine of one sweep against scalar
// SetFault + Eval, and that each is visited once in order.
func checkSweep(t *testing.T, nl *Netlist, inputs []signal.Bit, faults []Fault) {
	t.Helper()
	sw, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	next := -1
	err = sw.SweepStuckAt(inputs, faults, func(i int, out []signal.Bit) {
		if i != next {
			t.Fatalf("%s: visited machine %d, want %d", nl.Name, i, next)
		}
		next++
		ref.ClearFaults()
		name := "fault-free"
		if i >= 0 {
			ref.SetFault(faults[i])
			name = faults[i].Symbol(nl)
		}
		want, err := ref.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if got := signal.WordFromBits(out); !got.Equal(signal.WordFromBits(want)) {
			t.Fatalf("%s inputs %s machine %s: sweep %s, scalar %s",
				nl.Name, signal.WordFromBits(inputs), name, got, signal.WordFromBits(want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(faults) {
		t.Fatalf("%s: visited %d faulty machines, want %d", nl.Name, next, len(faults))
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
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = ev.SweepStuckAt([]signal.Bit{signal.BZ, signal.B0}, faults, func(_ int, out []signal.Bit) {
		w := signal.WordFromBits(out)
		got = append(got, w.String())
	})
	if err != nil {
		t.Fatal(err)
	}
	// Word strings are MSB-first: dangling, or, buf, a.
	want := []string{"XXXZ", "X111", "X000", "X1XZ", "XXXX", "XXXZ", "XXXZ"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("machine %d: got %s, want %s", i-1, got[i], want[i])
		}
	}
	checkSweep(t, nl, []signal.Bit{signal.BZ, signal.B0}, faults)
}

func TestSweepStuckAtNoFaults(t *testing.T) {
	nl := HalfAdderIP()
	ev, err := nl.NewEvaluator()
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
	ev, err := nl.NewEvaluator()
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
	ev.SetFault(Fault{nl.Inputs()[0], signal.B1})
	if err := ev.SweepStuckAt(nl.InputWord(0), nil, nop); err == nil {
		t.Error("sweep with an injected fault accepted")
	}
	ev.ClearFaults()
	ev.SetBridge(Bridge{nl.Inputs()[0], nl.Inputs()[1]})
	if err := ev.SweepStuckAt(nl.InputWord(0), nil, nop); err == nil {
		t.Error("sweep with a bridge accepted")
	}
}

// TestSweepStuckAtLeavesEvalState checks that a sweep neither reads nor
// disturbs the net values Eval keeps.
func TestSweepStuckAtLeavesEvalState(t *testing.T) {
	nl := ArrayMultiplier(2)
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(nl.InputWord(0x5)); err != nil {
		t.Fatal(err)
	}
	before := ev.OutputWord().String()
	if err := ev.SweepStuckAt(nl.InputWord(0xf), allStuckAt(nl), func(int, []signal.Bit) {}); err != nil {
		t.Fatal(err)
	}
	if after := ev.OutputWord().String(); after != before {
		t.Errorf("outputs %s -> %s", before, after)
	}
}

// TestSweepStuckAtAllocationFree: once the evaluator's scratch exists, a
// sweep of any length allocates nothing.
func TestSweepStuckAtAllocationFree(t *testing.T) {
	nl := ArrayMultiplier(4)
	ev, err := nl.NewEvaluator()
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

// FuzzSweepStuckAt differentially tests the bit-parallel sweep against
// scalar SetFault + Eval on random netlists, four-valued inputs, and a
// seed-shuffled fault list long enough for several passes that holds sa0
// and sa1 on every net (so primary inputs and outputs are always
// covered). Flags add a primary input read straight back as an output
// and an undriven output.
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
	})
}
