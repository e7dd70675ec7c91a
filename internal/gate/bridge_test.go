package gate

import (
	"testing"

	"repro/internal/signal"
)

// evalBridged evaluates one pattern on nl under bridge b, through the
// unrolled netlist with its extra input driven X.
func evalBridged(t *testing.T, nl *Netlist, b Bridge, in []signal.Bit) []signal.Bit {
	t.Helper()
	bn, err := nl.Bridged(b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := bn.Eval(append(append([]signal.Bit(nil), in...), signal.BX))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBridgeWiredAndBasic(t *testing.T) {
	// Two independent buffers; bridge their outputs: both read AND.
	nl := NewNetlist("br")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	x := nl.AddGate(Buf, "x", a)
	y := nl.AddGate(Buf, "y", b)
	nl.MarkOutput(x)
	nl.MarkOutput(y)
	cases := []struct {
		a, b, want signal.Bit
	}{
		{signal.B0, signal.B0, signal.B0},
		{signal.B0, signal.B1, signal.B0},
		{signal.B1, signal.B0, signal.B0},
		{signal.B1, signal.B1, signal.B1},
	}
	for _, tc := range cases {
		out := evalBridged(t, nl, Bridge{A: x, B: y}, []signal.Bit{tc.a, tc.b})
		if out[0] != tc.want || out[1] != tc.want {
			t.Errorf("bridge(%v,%v) outputs = %v %v, want %v", tc.a, tc.b, out[0], out[1], tc.want)
		}
	}
	// The bridged netlist is a copy: the original stays independent.
	out, _ := nl.Eval([]signal.Bit{signal.B1, signal.B0})
	if out[0] != signal.B1 || out[1] != signal.B0 {
		t.Error("Bridged changed the original netlist")
	}
}

func TestBridgePropagatesDownstream(t *testing.T) {
	// The bridged (lowered) value must feed downstream logic.
	nl := NewNetlist("brd")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	x := nl.AddGate(Buf, "x", a)
	y := nl.AddGate(Buf, "y", b)
	o := nl.AddGate(Or, "o", x, y)
	nl.MarkOutput(o)
	// x and y both become 0, so OR = 0 (fault-free would be 1).
	if out := evalBridged(t, nl, Bridge{A: x, B: y}, []signal.Bit{signal.B1, signal.B0}); out[0] != signal.B0 {
		t.Errorf("downstream of bridge = %v, want 0", out[0])
	}
}

func TestBridgeSelfIsNoOp(t *testing.T) {
	nl := NewNetlist("self")
	a := nl.AddInput("a")
	x := nl.AddGate(Buf, "x", a)
	nl.MarkOutput(x)
	if out := evalBridged(t, nl, Bridge{A: x, B: x}, []signal.Bit{signal.B1}); out[0] != signal.B1 {
		t.Errorf("self bridge changed value: %v", out[0])
	}
}

func TestBridgeOnPrimaryInputs(t *testing.T) {
	nl := NewNetlist("pibr")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	oa := nl.AddGate(Buf, "oa", a)
	ob := nl.AddGate(Buf, "ob", b)
	nl.MarkOutput(oa)
	nl.MarkOutput(ob)
	out := evalBridged(t, nl, Bridge{A: a, B: b}, []signal.Bit{signal.B1, signal.B0})
	if out[0] != signal.B0 || out[1] != signal.B0 {
		t.Errorf("PI bridge outputs = %v %v, want 0 0", out[0], out[1])
	}
}

func TestBridgedRejectsInvalidNet(t *testing.T) {
	nl := C17()
	if _, err := nl.Bridged(Bridge{A: 0, B: NetID(nl.NumNets())}); err == nil {
		t.Error("bridge to an invalid net accepted")
	}
}

// checkBridged compares the unrolled netlist of every bridge against the
// scalar three-pass wired-AND resolution, lane by lane.
func checkBridged(t *testing.T, nl *Netlist, bridges []Bridge, patterns [][]signal.Bit) {
	t.Helper()
	ref, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ext := make([][]signal.Bit, len(patterns))
	for i, p := range patterns {
		ext[i] = append(append([]signal.Bit(nil), p...), signal.BX)
	}
	got := make([]signal.Bit, len(nl.Outputs()))
	for _, b := range bridges {
		bn, err := nl.Bridged(b)
		if err != nil {
			t.Fatal(err)
		}
		le, err := bn.NewLaneEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		ref.ClearBridges()
		ref.SetBridge(b)
		for start := 0; start < len(ext); start += Lanes {
			batch := ext[start:min(start+Lanes, len(ext))]
			if err := le.EvalBatch(batch); err != nil {
				t.Fatal(err)
			}
			for l := range batch {
				want, err := ref.Eval(patterns[start+l])
				if err != nil {
					t.Fatal(err)
				}
				le.ReadOutputs(got, l)
				if !signal.WordFromBits(got).Equal(signal.WordFromBits(want)) {
					t.Fatalf("%s bridge %v inputs %s: unrolled %s, scalar %s", nl.Name, b,
						signal.WordFromBits(patterns[start+l]), signal.WordFromBits(got), signal.WordFromBits(want))
				}
			}
		}
	}
}

// allPairs returns every ordered bridge of nl, self-bridges included.
func allPairs(nl *Netlist) []Bridge {
	var out []Bridge
	for a := 0; a < nl.NumNets(); a++ {
		for b := 0; b < nl.NumNets(); b++ {
			out = append(out, Bridge{NetID(a), NetID(b)})
		}
	}
	return out
}

// TestBridgedMatchesScalar checks every ordered pair of nets, so
// primary inputs, feedback pairs (a net and one it feeds), undriven nets
// and self-bridges are all covered, over every four-valued input.
func TestBridgedMatchesScalar(t *testing.T) {
	nl := NewNetlist("mix")
	a, b, c := nl.AddInput("a"), nl.AddInput("b"), nl.AddInput("c")
	x := nl.AddGate(Nand, "x", a, b)
	y := nl.AddGate(Xor, "y", x, c)
	z := nl.AddGate(Nor, "z", y, a, b)
	nl.MarkOutput(z)
	nl.MarkOutput(nl.AddGate(Not, "w", x))
	nl.MarkOutput(nl.AddNet("dangling"))
	nl.MarkOutput(c)
	checkBridged(t, nl, allPairs(nl), allLevels(3))
	for _, nl := range []*Netlist{C17(), RandomCombinational(3, 12, 2, 4)} {
		checkBridged(t, nl, allPairs(nl), allLevels(len(nl.Inputs())))
	}
}
