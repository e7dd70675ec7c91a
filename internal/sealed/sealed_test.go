package sealed

import (
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

func key32() []byte { return []byte("0123456789abcdef0123456789abcdef") }

func TestSealOpenFunctionalParity(t *testing.T) {
	nl := gate.ArrayMultiplier(6)
	m, err := Seal(nl, key32())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Open(m, key32())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name() != nl.Name {
		t.Errorf("name = %s, want %s", ev.Name(), nl.Name)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		v := uint64(r.Intn(1 << 12))
		want, err := nl.Eval(nl.InputWord(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Eval(nl.InputWord(v))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("sealed model diverges at input %d output %d", v, j)
			}
		}
	}
}

func TestWrongKeyFails(t *testing.T) {
	nl := gate.RippleAdder(3)
	m, err := Seal(nl, key32())
	if err != nil {
		t.Fatal(err)
	}
	wrong := []byte("ffffffffffffffffffffffffffffffff")
	if _, err := Open(m, wrong); err == nil {
		t.Error("wrong key opened the model")
	}
}

func TestTamperedCiphertextFails(t *testing.T) {
	nl := gate.RippleAdder(3)
	m, err := Seal(nl, key32())
	if err != nil {
		t.Fatal(err)
	}
	m.Ciphertext[len(m.Ciphertext)/2] ^= 0x01
	if _, err := Open(m, key32()); err == nil {
		t.Error("tampered ciphertext opened")
	}
}

func TestTamperedMetadataFails(t *testing.T) {
	// The component name is authenticated as associated data.
	nl := gate.RippleAdder(3)
	m, err := Seal(nl, key32())
	if err != nil {
		t.Fatal(err)
	}
	m.ComponentName = "renamed"
	if _, err := Open(m, key32()); err == nil {
		t.Error("renamed model opened")
	}
}

func TestBadKeyLengthRejected(t *testing.T) {
	nl := gate.RippleAdder(2)
	if _, err := Seal(nl, []byte("short")); err == nil {
		t.Error("short key accepted by Seal")
	}
	m, _ := Seal(nl, key32())
	if _, err := Open(m, []byte("short")); err == nil {
		t.Error("short key accepted by Open")
	}
}

func TestMalformedNonceRejected(t *testing.T) {
	nl := gate.RippleAdder(2)
	m, _ := Seal(nl, key32())
	m.Nonce = m.Nonce[:4]
	if _, err := Open(m, key32()); err == nil {
		t.Error("truncated nonce accepted")
	}
}

func TestEvalArityChecked(t *testing.T) {
	nl := gate.RippleAdder(2)
	m, _ := Seal(nl, key32())
	ev, err := Open(m, key32())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval([]signal.Bit{signal.B1}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestEvalOutputIsCopy(t *testing.T) {
	nl := gate.RippleAdder(2)
	m, _ := Seal(nl, key32())
	ev, _ := Open(m, key32())
	a, err := ev.Eval(nl.InputWord(0b0101))
	if err != nil {
		t.Fatal(err)
	}
	a[0] = signal.BX
	b, err := ev.Eval(nl.InputWord(0b0101))
	if err != nil {
		t.Fatal(err)
	}
	if b[0] == signal.BX {
		t.Error("evaluator leaked internal buffer")
	}
}
