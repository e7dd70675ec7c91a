package gate

import (
	"bytes"
	"math/rand"
	"slices"
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

// embedReference is Embed written against the exported API alone, one
// AddNet per non-input sub net and one AddGateTo per gate in levelized
// order: the oracle for Embed's reserved, slab-carved construction.
func embedReference(t *testing.T, n, sub *Netlist, drivers []NetID, prefix string) []NetID {
	t.Helper()
	mapping := make([]NetID, sub.NumNets())
	for i, id := range sub.Inputs() {
		mapping[id] = drivers[i]
	}
	for id := 0; id < sub.NumNets(); id++ {
		if !sub.IsInput(NetID(id)) {
			mapping[id] = n.AddNet(prefix + sub.NetName(NetID(id)))
		}
	}
	levels, err := sub.Levelized()
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range levels {
		g := sub.Gates()[gi]
		in := make([]NetID, len(g.In))
		for i, id := range g.In {
			in[i] = mapping[id]
		}
		n.AddGateTo(g.Kind, mapping[g.Out], in...)
	}
	outs := make([]NetID, len(sub.Outputs()))
	for i, id := range sub.Outputs() {
		outs[i] = mapping[id]
	}
	return outs
}

// TestEmbedIntoPopulatedNetlistMatchesReference embeds two components,
// one after the other, into a netlist that already has inputs and gates,
// and compares the snapshot against the same construction through the
// exported API.
func TestEmbedIntoPopulatedNetlistMatchesReference(t *testing.T) {
	subs := []*Netlist{RandomCombinational(3, 40, 2, 5), ArrayMultiplier(3), C17()}
	build := func(embed func(n, sub *Netlist, drivers []NetID, prefix string) []NetID) []byte {
		n := NewNetlist("top")
		var avail []NetID
		for i := 0; i < 6; i++ {
			avail = append(avail, n.AddInput(string(rune('a'+i))))
		}
		avail = append(avail, n.AddGate(Xor, "x", avail[0], avail[1], avail[2]))
		for k, sub := range subs {
			drivers := avail[len(avail)-len(sub.Inputs()):]
			outs := embed(n, sub, drivers, "U"+string(rune('1'+k))+".")
			avail = append(avail, outs...)
		}
		for _, id := range avail[len(avail)-2:] {
			n.MarkOutput(id)
		}
		blob, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	got := build(func(n, sub *Netlist, drivers []NetID, prefix string) []NetID {
		return n.Embed(sub, drivers, prefix)
	})
	want := build(func(n, sub *Netlist, drivers []NetID, prefix string) []NetID {
		return embedReference(t, n, sub, drivers, prefix)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("Embed built a different netlist than the exported-API reference")
	}
}

// TestGateInputsDoNotAlias appends to every gate's input list, in order,
// and checks that no other gate's inputs changed: each gate's inputs are
// a capacity-limited window of the netlist's pin slab. It covers gates
// added one by one, carved by Embed and decoded from a snapshot.
func TestGateInputsDoNotAlias(t *testing.T) {
	embedded := NewNetlist("top")
	embedded.Embed(RandomCombinational(3, 30, 2, 8), []NetID{
		embedded.AddInput("a"), embedded.AddInput("b"), embedded.AddInput("c"),
	}, "U.")
	for _, nl := range []*Netlist{RandomCombinational(4, 60, 2, 3), embedded, ArrayMultiplier(4).Clone()} {
		before, err := nl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gates := nl.Gates()
		for i := range gates {
			want := append([]NetID(nil), gates[(i+1)%len(gates)].In...)
			grown := append(gates[i].In, 0, 0)
			grown[len(grown)-1] = NetID(len(gates))
			if got := gates[(i+1)%len(gates)].In; !slices.Equal(got, want) {
				t.Fatalf("%s: appending to gate %d's inputs changed gate %d's: %v, want %v",
					nl.Name, i, (i+1)%len(gates), got, want)
			}
		}
		after, err := nl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: appending to gate inputs changed the netlist", nl.Name)
		}
	}
}
