package gate

import (
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
		"net ref":    {0, 1, 1, 'a', 1, 0, 1, byte(Not), 1, 0, 7},
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
