package security

import (
	"encoding/hex"
	"testing"

	"repro/internal/signal"
)

func TestKeyTagVerify(t *testing.T) {
	k, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("challenge-123")
	tag := k.Tag(msg)
	if !k.Verify(msg, tag) {
		t.Error("valid tag rejected")
	}
	if k.Verify([]byte("other"), tag) {
		t.Error("tag accepted for wrong message")
	}
	raw, err := hex.DecodeString(tag)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1 // one flipped bit always differs from the real tag
	if k.Verify(msg, hex.EncodeToString(raw)) {
		t.Error("tampered tag accepted")
	}
	if k.Verify(msg, "not-hex!") {
		t.Error("malformed tag accepted")
	}
	k2, _ := NewKey()
	if k2.Verify(msg, tag) {
		t.Error("tag accepted under different key")
	}
}

func TestMarshalPolicyAllowsPortValues(t *testing.T) {
	p := MarshalPolicy{}
	good := []any{
		nil,
		signal.B1,
		signal.BitValue{B: signal.B0},
		signal.WordFromUint64(7, 8),
		signal.WordValue{W: signal.WordFromUint64(7, 8)},
		[]signal.Bit{signal.B0, signal.B1},
		[][]signal.Bit{{signal.B0}, {signal.B1}},
		[]signal.Word{signal.WordFromUint64(1, 4)},
		[]uint64{1, 2, 3},
		[]float64{1.5},
		[]string{"I3sa0"},
		"estimate.power",
		42,
		3.14,
		true,
		[]any{uint64(1), "x"},
	}
	for _, v := range good {
		if err := p.CheckOutbound(v); err != nil {
			t.Errorf("port-value payload %T rejected: %v", v, err)
		}
	}
}

type designSecret struct{ Netlist any }

func TestMarshalPolicyRejectsStructures(t *testing.T) {
	p := MarshalPolicy{}
	bad := []any{
		designSecret{},
		func() {},
		make(chan int),
		map[string]int{"a": 1},
		[]any{uint64(1), designSecret{}},
	}
	for _, v := range bad {
		if err := p.CheckOutbound(v); err == nil {
			t.Errorf("non-port-value payload %T accepted", v)
		}
	}
}

func TestMarshalPolicyBudget(t *testing.T) {
	p := MarshalPolicy{MaxValues: 10}
	if err := p.CheckOutbound(make([]signal.Bit, 10)); err != nil {
		t.Errorf("payload at budget rejected: %v", err)
	}
	if err := p.CheckOutbound(make([]signal.Bit, 11)); err == nil {
		t.Error("payload over budget accepted")
	}
	big := [][]signal.Bit{make([]signal.Bit, 6), make([]signal.Bit, 6)}
	if err := p.CheckOutbound(big); err == nil {
		t.Error("nested payload over budget accepted")
	}
}
