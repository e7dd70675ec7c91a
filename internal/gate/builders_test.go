package gate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

// evalUint drives a netlist whose inputs are a-then-b fields and decodes
// the output as an unsigned integer.
func evalArith(t *testing.T, nl *Netlist, a, b uint64, widthA, widthB int) uint64 {
	t.Helper()
	in := make([]signal.Bit, widthA+widthB)
	for i := 0; i < widthA; i++ {
		if a&(1<<uint(i)) != 0 {
			in[i] = signal.B1
		}
	}
	for i := 0; i < widthB; i++ {
		if b&(1<<uint(i)) != 0 {
			in[widthA+i] = signal.B1
		}
	}
	out, err := nl.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	for i, bit := range out {
		bv, ok := bit.Bool()
		if !ok {
			t.Fatalf("output bit %d is %v", i, bit)
		}
		if bv {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestRippleAdderExhaustive4(t *testing.T) {
	nl := RippleAdder(4)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			got := evalArith(t, nl, a, b, 4, 4)
			if got != a+b {
				t.Fatalf("%d+%d = %d, want %d", a, b, got, a+b)
			}
		}
	}
}

func TestRippleAdderRandom16(t *testing.T) {
	nl := RippleAdder(16)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := uint64(r.Intn(1 << 16))
		b := uint64(r.Intn(1 << 16))
		if got := evalArith(t, nl, a, b, 16, 16); got != a+b {
			t.Fatalf("%d+%d = %d", a, b, got)
		}
	}
}

func TestArrayMultiplierExhaustive3(t *testing.T) {
	nl := ArrayMultiplier(3)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			got := evalArith(t, nl, a, b, 3, 3)
			if got != a*b {
				t.Fatalf("%d*%d = %d, want %d", a, b, got, a*b)
			}
		}
	}
}

func TestArrayMultiplierProperty16(t *testing.T) {
	nl := ArrayMultiplier(16)
	f := func(a, b uint16) bool {
		return evalArith(t, nl, uint64(a), uint64(b), 16, 16) == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArrayMultiplierReservesExactly: the builder reserves its net,
// gate and pin stores from the width, exactly — no growth past the
// reservation, no slack left in it.
func TestArrayMultiplierReservesExactly(t *testing.T) {
	for _, w := range []int{2, 3, 16, 32} {
		nl := ArrayMultiplier(w)
		if len(nl.nets) != cap(nl.nets) || len(nl.gates) != cap(nl.gates) || len(nl.pins) != cap(nl.pins) {
			t.Errorf("width %d: nets %d/%d, gates %d/%d, pins %d/%d (len/cap)", w,
				len(nl.nets), cap(nl.nets), len(nl.gates), cap(nl.gates), len(nl.pins), cap(nl.pins))
		}
	}
}

func TestArrayMultiplierWidthGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 1 did not panic")
		}
	}()
	ArrayMultiplier(1)
}

func TestHalfAdderIPTruth(t *testing.T) {
	nl := HalfAdderIP()
	for a := uint64(0); a < 2; a++ {
		for b := uint64(0); b < 2; b++ {
			got := evalArith(t, nl, a, b, 1, 1)
			want := (a ^ b) | ((a & b) << 1) // out0 = sum, out1 = carry
			if got != want {
				t.Fatalf("IP1(%d,%d) = %02b, want %02b", a, b, got, want)
			}
		}
	}
	// Internal nets must carry the paper's names.
	for _, name := range []string{"I1", "I2", "I3", "I4", "I5", "I6"} {
		if nl.Net(name) == InvalidNet {
			t.Errorf("missing internal net %q", name)
		}
	}
}

func TestFigure4DesignFaultFree(t *testing.T) {
	nl := Figure4Design()
	// ABCD = 1100: E=1, IP1 inputs (1,0) -> sum=1, carry=0.
	// O1 = sum AND D = 1 AND 0 = 0; F = C AND D = 0; O2 = carry OR F = 0.
	in := []signal.Bit{signal.B1, signal.B1, signal.B0, signal.B0}
	out, err := nl.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B0 || out[1] != signal.B0 {
		t.Errorf("fig4(1100) = %v%v, want 00", out[0], out[1])
	}
	// ABCD = 1101: O1 = 1 AND 1 = 1.
	in[3] = signal.B1
	out, _ = nl.Eval(in)
	if out[0] != signal.B1 {
		t.Errorf("fig4(1101) O1 = %v, want 1", out[0])
	}
	// IP1's fault-free outputs for IIP1=1, IIP2=0 must be (1,0): the
	// paper's "fault-free configuration, 10".
	le := evalOne(t, nl, in)
	if laneValue(le, nl.Net("OIP1"), 0) != signal.B1 || laneValue(le, nl.Net("OIP2"), 0) != signal.B0 {
		t.Errorf("IP1 outputs = %v%v, want 10",
			laneValue(le, nl.Net("OIP1"), 0), laneValue(le, nl.Net("OIP2"), 0))
	}
}

// evalOne evaluates one pattern in a one-lane batch.
func evalOne(t *testing.T, nl *Netlist, in []signal.Bit) *LaneEvaluator {
	t.Helper()
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if err := le.EvalBatch([][]signal.Bit{in}); err != nil {
		t.Fatal(err)
	}
	return le
}

// TestEvaluatorFaultInjection checks LaneEvaluator.InjectStuckAt on an
// internal net, ClearStuckAt, and the invalid-net error.
func TestEvaluatorFaultInjection(t *testing.T) {
	nl := Figure4Design()
	in := nl.InputWord(0b1011) // A=1, B=1, C=0, D=1
	le := evalOne(t, nl, in)
	out := make([]signal.Bit, 2)
	le.ReadOutputs(out, 0)
	if out[0] != signal.B1 {
		t.Fatalf("fault-free O1 = %v", out[0])
	}
	// The observable effect of I3 stuck-at-0 depends on the circuit; the
	// injection must at least force the net itself.
	if err := le.InjectStuckAt(Fault{Net: nl.Net("I3"), Stuck: signal.B0}); err != nil {
		t.Fatal(err)
	}
	if err := le.EvalBatch([][]signal.Bit{in}); err != nil {
		t.Fatal(err)
	}
	if laneValue(le, nl.Net("I3"), 0) != signal.B0 {
		t.Error("fault injection did not force net value")
	}
	le.ClearStuckAt()
	if err := le.EvalBatch([][]signal.Bit{in}); err != nil {
		t.Fatal(err)
	}
	if laneValue(le, nl.Net("I3"), 0) != signal.B1 {
		t.Error("ClearStuckAt did not restore fault-free value")
	}
	if err := le.InjectStuckAt(Fault{Net: NetID(nl.NumNets()), Stuck: signal.B0}); err == nil {
		t.Error("fault on an invalid net accepted")
	}
}

func TestEvaluatorFaultOnPrimaryInput(t *testing.T) {
	nl := NewNetlist("pi")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	o := nl.AddGate(And, "o", a, b)
	nl.MarkOutput(o)
	le, _ := nl.NewLaneEvaluator()
	if err := le.InjectStuckAt(Fault{Net: a, Stuck: signal.B0}); err != nil {
		t.Fatal(err)
	}
	out, err := le.Eval([]signal.Bit{signal.B1, signal.B1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B0 {
		t.Errorf("PI stuck-at-0 not applied: out = %v", out[0])
	}
}

// TestEvaluatorOutputWord packs one-lane Eval outputs into a word, bit i
// for output i.
func TestEvaluatorOutputWord(t *testing.T) {
	nl := RippleAdder(2)
	// 3 + 1 = 4 -> s0=0, s1=0, cout=1 -> word "100".
	out, err := nl.Eval(nl.InputWord(0b0111)) // a=3 (bits 0-1), b=1 (bits 2-3)
	if err != nil {
		t.Fatal(err)
	}
	if got := signal.WordFromBits(out).String(); got != "100" {
		t.Errorf("output word = %q, want 100", got)
	}
}

func TestRandomCombinationalDeterministic(t *testing.T) {
	a := RandomCombinational(4, 20, 3, 7)
	b := RandomCombinational(4, 20, 3, 7)
	if a.NumGates() != b.NumGates() || a.NumNets() != b.NumNets() {
		t.Error("same seed produced different circuits")
	}
	if err := a.Build(); err != nil {
		t.Fatalf("random circuit invalid: %v", err)
	}
	// Same seed, same outputs for a batch of patterns.
	for v := uint64(0); v < 16; v++ {
		oa, _ := a.Eval(a.InputWord(v))
		ob, _ := b.Eval(b.InputWord(v))
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("pattern %d output %d differs", v, i)
			}
		}
	}
}

func TestRandomCombinationalGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad args did not panic")
		}
	}()
	RandomCombinational(1, 0, 0, 1)
}

func TestRippleAdderVsMultiplierGateCounts(t *testing.T) {
	// Sanity: multiplier gate count grows quadratically, adder linearly.
	a8 := RippleAdder(8)
	a16 := RippleAdder(16)
	if a16.NumGates() <= a8.NumGates() {
		t.Error("adder gate count not growing")
	}
	m4 := ArrayMultiplier(4)
	m8 := ArrayMultiplier(8)
	if m8.NumGates() < 3*m4.NumGates() {
		t.Errorf("multiplier growth suspicious: %d -> %d", m4.NumGates(), m8.NumGates())
	}
}

func TestC17Structure(t *testing.T) {
	nl := C17()
	if nl.NumGates() != 6 || len(nl.Inputs()) != 5 || len(nl.Outputs()) != 2 {
		t.Fatalf("c17 structure: %d gates, %d in, %d out",
			nl.NumGates(), len(nl.Inputs()), len(nl.Outputs()))
	}
	for _, g := range nl.Gates() {
		if g.Kind != Nand {
			t.Fatalf("c17 gate %s is %v, want NAND", g.Name, g.Kind)
		}
	}
	// Spot-check the function: all-ones input.
	out, err := nl.Eval([]signal.Bit{signal.B1, signal.B1, signal.B1, signal.B1, signal.B1})
	if err != nil {
		t.Fatal(err)
	}
	// 10=NAND(1,1)=0, 11=NAND(1,1)=0, 16=NAND(1,0)=1, 19=NAND(0,1)=1,
	// 22=NAND(0,1)=1, 23=NAND(1,1)=0.
	if out[0] != signal.B1 || out[1] != signal.B0 {
		t.Errorf("c17(11111) = %v%v, want 1 0", out[0], out[1])
	}
}
