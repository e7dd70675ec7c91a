package gate

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/signal"
)

func TestMarshalRoundTrip(t *testing.T) {
	orig := ArrayMultiplier(6)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := NewNetlist("")
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumGates() != orig.NumGates() || got.NumNets() != orig.NumNets() {
		t.Fatalf("structure mismatch after round trip")
	}
	for v := uint64(0); v < 64; v++ {
		in := orig.InputWord(v | (v^0x2A)<<6)
		a, err := orig.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("function mismatch at input %d output %d", v, i)
			}
		}
	}
}

func TestUnmarshalIntoNonEmptyRejected(t *testing.T) {
	blob, _ := RippleAdder(2).MarshalBinary()
	nl := RippleAdder(2)
	if err := nl.UnmarshalBinary(blob); err == nil {
		t.Error("unmarshal into populated netlist accepted")
	}
}

func TestUnmarshalGarbageRejected(t *testing.T) {
	nl := NewNetlist("")
	if err := nl.UnmarshalBinary([]byte("not a netlist")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUnmarshalCorruptIndicesRejected(t *testing.T) {
	blob, _ := RippleAdder(2).MarshalBinary()
	// Flip bytes until decode either fails or produces a rejected
	// structure; the decoder must never panic.
	for i := 0; i < len(blob); i += 7 {
		c := append([]byte(nil), blob...)
		c[i] ^= 0xFF
		nl := NewNetlist("")
		_ = nl.UnmarshalBinary(c) // must not panic
	}
}

func TestUnmarshalTruncatedRejected(t *testing.T) {
	blob, _ := RippleAdder(2).MarshalBinary()
	for cut := 0; cut < len(blob); cut++ {
		if err := NewNetlist("").UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("%d/%d-byte prefix accepted", cut, len(blob))
		}
	}
	if err := NewNetlist("").UnmarshalBinary(append(blob, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestUnmarshalHostileCountsRejected(t *testing.T) {
	for name, blob := range map[string][]byte{
		"net count":  {0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"gate count": {0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"gate kind":  {0, 0, 1, 42, 0, 0},
		"net ref":    {0, 1, 1, 'a', 1, 1, byte(Not), 1, 0, 7},
		"output ref": {0, 1, 1, 'a', 1, 0, 1, 7},
		"output dup": {0, 1, 1, 'a', 1, 0, 2, 0, 0},
	} {
		if err := NewNetlist("").UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: hostile snapshot accepted", name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := HalfAdderIP()
	c := orig.Clone()
	if c.NumGates() != orig.NumGates() {
		t.Fatal("clone structure differs")
	}
	// Mutating the clone must not affect the original.
	c.AddInput("extra")
	if orig.Net("extra") != InvalidNet {
		t.Error("clone shares state with original")
	}
	// The clone now wants 3 inputs; the original still wants 2.
	if _, err := c.Eval([]signal.Bit{signal.B1, signal.B1}); err == nil {
		t.Error("mutated clone accepted stale arity")
	}
	if _, err := orig.Eval([]signal.Bit{signal.B1, signal.B1}); err != nil {
		t.Errorf("original broken by clone mutation: %v", err)
	}
}

// FuzzNetlistSnapshot decodes arbitrary bytes as a netlist snapshot.
// Snapshots cross a trust boundary (internal/sealed ships them), so
// decoding must never panic; a snapshot it accepts must re-encode to
// bytes that decode and re-encode to themselves, and must evaluate.
func FuzzNetlistSnapshot(f *testing.F) {
	wide := NewNetlist("wide")
	a, b, c := wide.AddInput("a"), wide.AddInput("b"), wide.AddInput("c")
	wide.MarkOutput(wide.AddGate(Xnor, "x", a, b, c))
	wide.MarkOutput(wide.AddGate(Nor, "y", a, a))
	embedded := NewNetlist("top")
	embedded.MarkOutput(embedded.Embed(HalfAdderIP(), []NetID{embedded.AddInput("p"), embedded.AddInput("q")}, "IP.")[1])
	// RandomCombinational(3, 20, 2, 1) marks its outputs out of ID order.
	for _, nl := range []*Netlist{NewNetlist(""), C17(), RippleAdder(2), wide, embedded, RandomCombinational(3, 20, 2, 9), RandomCombinational(3, 20, 2, 1)} {
		blob, err := nl.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("not a netlist"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nl := NewNetlist("")
		if err := nl.UnmarshalBinary(data); err != nil {
			return
		}
		once, err := nl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again := NewNetlist("")
		if err := again.UnmarshalBinary(once); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		twice, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n once  %x\n twice %x", once, twice)
		}
		le, err := nl.NewLaneEvaluator()
		if err != nil {
			t.Fatalf("decoded netlist does not evaluate: %v", err)
		}
		in := make([]signal.Bit, len(nl.Inputs()))
		for i := range in {
			in[i] = signal.Bit(i % 4)
		}
		if err := le.EvalBatch([][]signal.Bit{in}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotKeepsOutputOrder checks that a snapshot round trip keeps
// the order in which outputs were marked, not the nets' ID order, so a
// clone evaluates each output in the same position as the original.
func TestSnapshotKeepsOutputOrder(t *testing.T) {
	orig := RandomCombinational(3, 20, 2, 1)
	want := orig.Outputs()
	if slices.IsSorted(want) {
		t.Fatalf("outputs %v are in ID order; the check needs a netlist whose are not", want)
	}
	if got := orig.Clone().Outputs(); !slices.Equal(got, want) {
		t.Errorf("Clone outputs %v, want %v", got, want)
	}
}
