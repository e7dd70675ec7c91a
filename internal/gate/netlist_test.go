package gate

import (
	"fmt"
	"testing"

	"repro/internal/signal"
)

func TestKindString(t *testing.T) {
	if And.String() != "AND" || Not.String() != "NOT" || Xnor.String() != "XNOR" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind name wrong")
	}
}

func TestNetlistBasicConstruction(t *testing.T) {
	nl := NewNetlist("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	o := nl.AddGate(And, "o", a, b)
	nl.MarkOutput(o)
	if nl.NumGates() != 1 || nl.NumNets() != 3 {
		t.Errorf("gates=%d nets=%d", nl.NumGates(), nl.NumNets())
	}
	if nl.Net("o") != o || nl.Net("missing") != InvalidNet {
		t.Error("Net lookup wrong")
	}
	if nl.NetName(o) != "o" {
		t.Error("NetName wrong")
	}
	if !nl.IsInput(a) || nl.IsInput(o) || !nl.IsOutput(o) || nl.IsOutput(a) {
		t.Error("IsInput/IsOutput wrong")
	}
	if nl.Fanout(a) != 1 || nl.Fanout(o) != 0 {
		t.Error("fanout wrong")
	}
	if len(nl.Inputs()) != 2 || len(nl.Outputs()) != 1 {
		t.Error("inputs/outputs wrong")
	}
	// Marking twice must not duplicate.
	nl.MarkOutput(o)
	if len(nl.Outputs()) != 1 {
		t.Error("MarkOutput not idempotent")
	}
}

func TestNetlistDuplicateNamePanics(t *testing.T) {
	nl := NewNetlist("t")
	nl.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	nl.AddNet("a")
}

func TestNetlistDoubleDriverPanics(t *testing.T) {
	nl := NewNetlist("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	o := nl.AddGate(And, "o", a, b)
	defer func() {
		if recover() == nil {
			t.Error("double driver did not panic")
		}
	}()
	nl.AddGateTo(Or, o, a, b)
}

func TestNetlistArityPanics(t *testing.T) {
	nl := NewNetlist("t")
	a := nl.AddInput("a")
	for i, tc := range []struct {
		k  Kind
		in []NetID
	}{
		{And, []NetID{a}},
		{Not, []NetID{a, a}},
		{Kind(99), []NetID{a, a}},
		{Kind(-1), []NetID{a}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v with %d inputs did not panic", tc.k, len(tc.in))
				}
			}()
			nl.AddGateTo(tc.k, nl.AddNet(fmt.Sprintf("bad%d", i)), tc.in...)
		}()
	}
}

func TestNetlistCombinationalLoopDetected(t *testing.T) {
	nl := NewNetlist("loop")
	a := nl.AddInput("a")
	x := nl.AddNet("x")
	y := nl.AddGate(And, "y", a, x)
	nl.AddGateTo(And, x, a, y)
	if err := nl.Build(); err == nil {
		t.Error("combinational loop not detected")
	}
}

func TestNetlistUndrivenNetDetected(t *testing.T) {
	nl := NewNetlist("undriven")
	a := nl.AddInput("a")
	x := nl.AddNet("x") // never driven
	nl.AddGate(And, "o", a, x)
	if err := nl.Build(); err == nil {
		t.Error("undriven net not detected")
	}
}

func evalBits(t *testing.T, nl *Netlist, in string) string {
	t.Helper()
	w, err := signal.ParseWord(in)
	if err != nil {
		t.Fatal(err)
	}
	// ParseWord is MSB-first, so w's bit order is the string's reversed.
	// Here we interpret in[0] of the string as input 0 for readability,
	// so reverse.
	bits := make([]signal.Bit, len(in))
	for i := range bits {
		bits[i] = w.Bit(len(in) - 1 - i)
	}
	out, err := nl.Eval(bits)
	if err != nil {
		t.Fatal(err)
	}
	s := ""
	for _, b := range out {
		s += b.String()
	}
	return s
}

func TestAllGateKindsEval(t *testing.T) {
	// One gate of each kind, both binary input combinations checked.
	cases := []struct {
		k    Kind
		a, b signal.Bit
		want signal.Bit
	}{
		{And, signal.B1, signal.B1, signal.B1},
		{And, signal.B1, signal.B0, signal.B0},
		{Nand, signal.B1, signal.B1, signal.B0},
		{Or, signal.B0, signal.B0, signal.B0},
		{Or, signal.B0, signal.B1, signal.B1},
		{Nor, signal.B0, signal.B0, signal.B1},
		{Xor, signal.B1, signal.B0, signal.B1},
		{Xor, signal.B1, signal.B1, signal.B0},
		{Xnor, signal.B1, signal.B1, signal.B1},
	}
	for _, tc := range cases {
		nl := NewNetlist("k")
		a := nl.AddInput("a")
		b := nl.AddInput("b")
		o := nl.AddGate(tc.k, "o", a, b)
		nl.MarkOutput(o)
		out, err := nl.Eval([]signal.Bit{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != tc.want {
			t.Errorf("%v(%v,%v) = %v, want %v", tc.k, tc.a, tc.b, out[0], tc.want)
		}
	}
	// Unary kinds.
	nl := NewNetlist("u")
	a := nl.AddInput("a")
	nn := nl.AddGate(Not, "n", a)
	bb := nl.AddGate(Buf, "bf", a)
	nl.MarkOutput(nn)
	nl.MarkOutput(bb)
	out, err := nl.Eval([]signal.Bit{signal.B1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B0 || out[1] != signal.B1 {
		t.Errorf("NOT/BUF = %v %v", out[0], out[1])
	}
}

func TestThreeInputGate(t *testing.T) {
	nl := NewNetlist("t3")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	o := nl.AddGate(And, "o", a, b, c)
	nl.MarkOutput(o)
	out, err := nl.Eval([]signal.Bit{signal.B1, signal.B1, signal.B1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B1 {
		t.Errorf("AND3(1,1,1) = %v", out[0])
	}
	out, _ = nl.Eval([]signal.Bit{signal.B1, signal.B0, signal.B1})
	if out[0] != signal.B0 {
		t.Errorf("AND3(1,0,1) = %v", out[0])
	}
}

func TestEvalXPropagation(t *testing.T) {
	nl := NewNetlist("x")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	o := nl.AddGate(And, "o", a, b)
	nl.MarkOutput(o)
	out, err := nl.Eval([]signal.Bit{signal.BX, signal.B0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B0 {
		t.Errorf("X AND 0 = %v, want 0", out[0])
	}
	out, _ = nl.Eval([]signal.Bit{signal.BX, signal.B1})
	if out[0] != signal.BX {
		t.Errorf("X AND 1 = %v, want X", out[0])
	}
}

func TestEvalWrongInputCount(t *testing.T) {
	nl := RippleAdder(2)
	if _, err := nl.Eval([]signal.Bit{signal.B0}); err == nil {
		t.Error("wrong input count not rejected")
	}
}

func TestFaultSymbols(t *testing.T) {
	nl := NewNetlist("f")
	a := nl.AddInput("I3")
	f0 := Fault{Net: a, Stuck: signal.B0}
	f1 := Fault{Net: a, Stuck: signal.B1}
	if f0.Symbol(nl) != "I3sa0" || f1.Symbol(nl) != "I3sa1" {
		t.Errorf("symbols = %q %q", f0.Symbol(nl), f1.Symbol(nl))
	}
	if f0.String() == "" {
		t.Error("Fault.String empty")
	}
	bad := Fault{Net: a, Stuck: signal.BX}
	if bad.Symbol(nl) != "I3sa?" {
		t.Errorf("invalid stuck symbol = %q", bad.Symbol(nl))
	}
}
