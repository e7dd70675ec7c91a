package gate

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func TestEmbedPreservesFunction(t *testing.T) {
	// Embed a 3-bit ripple adder behind two inverters and check the
	// composite against direct computation.
	sub := RippleAdder(3)
	top := NewNetlist("top")
	var drivers []NetID
	for i := 0; i < 6; i++ {
		in := top.AddInput(string(rune('a' + i)))
		inv := top.AddGate(Not, "n"+string(rune('a'+i)), in)
		drivers = append(drivers, inv)
	}
	outs := top.Embed(sub, drivers, "ADD.")
	for _, o := range outs {
		top.MarkOutput(o)
	}
	if err := top.Build(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		v := uint64(r.Intn(64))
		out, err := top.Eval(top.InputWord(v))
		if err != nil {
			t.Fatal(err)
		}
		// Inverted inputs: a' = ^a & 7, b' = ^b & 7.
		a := (^v) & 7
		b := (^(v >> 3)) & 7
		var got uint64
		for j, bit := range out {
			if bv, _ := bit.Bool(); bv {
				got |= 1 << uint(j)
			}
		}
		if got != a+b {
			t.Fatalf("embedded adder: %d+%d = %d", a, b, got)
		}
	}
}

func TestEmbedPrefixesInternalNets(t *testing.T) {
	sub := HalfAdderIP()
	top := NewNetlist("top")
	a := top.AddInput("a")
	b := top.AddInput("b")
	top.Embed(sub, []NetID{a, b}, "IP1.")
	if top.Net("IP1.I3") == InvalidNet {
		t.Error("internal net not prefixed")
	}
	if top.Net("I3") != InvalidNet {
		t.Error("unprefixed internal net leaked")
	}
	// Sub's primary inputs map to the drivers, not to new nets.
	if top.Net("IP1.IIP1") != InvalidNet {
		t.Error("sub primary input materialized as a net")
	}
}

func TestEmbedDriverCountChecked(t *testing.T) {
	sub := HalfAdderIP()
	top := NewNetlist("top")
	a := top.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Error("wrong driver count did not panic")
		}
	}()
	top.Embed(sub, []NetID{a}, "X.")
}

func TestEmbedTwiceNoCollision(t *testing.T) {
	sub := HalfAdderIP()
	top := NewNetlist("top")
	a := top.AddInput("a")
	b := top.AddInput("b")
	o1 := top.Embed(sub, []NetID{a, b}, "U1.")
	o2 := top.Embed(sub, []NetID{a, b}, "U2.")
	x := top.AddGate(Xor, "x", o1[0], o2[0])
	top.MarkOutput(x)
	if err := top.Build(); err != nil {
		t.Fatal(err)
	}
	// Identical instances on identical inputs: XOR of their sums is 0.
	for v := uint64(0); v < 4; v++ {
		out, err := top.Eval(top.InputWord(v))
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != signal.B0 {
			t.Fatalf("duplicate instances disagree at %d", v)
		}
	}
}

func TestEmbedFaultsStayLocalToInstance(t *testing.T) {
	// A fault injected into instance U1 must not affect instance U2.
	sub := HalfAdderIP()
	top := NewNetlist("top")
	a := top.AddInput("a")
	b := top.AddInput("b")
	o1 := top.Embed(sub, []NetID{a, b}, "U1.")
	o2 := top.Embed(sub, []NetID{a, b}, "U2.")
	top.MarkOutput(o1[0])
	top.MarkOutput(o2[0])
	le, err := top.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if err := le.InjectStuckAt(Fault{Net: top.Net("U1.I1"), Stuck: signal.B0}); err != nil {
		t.Fatal(err)
	}
	in := top.InputWord(0b01) // a=1, b=0 -> sum=1
	out, err := le.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != signal.B1 {
		t.Error("fault in U1 corrupted U2's output")
	}
	if out[0] == signal.B1 {
		t.Error("fault in U1 had no effect on U1's output")
	}
}
