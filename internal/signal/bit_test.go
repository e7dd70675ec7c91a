package signal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitString(t *testing.T) {
	cases := map[Bit]string{B0: "0", B1: "1", BX: "X", BZ: "Z"}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("Bit(%d).String() = %q, want %q", b, got, want)
		}
	}
	if got := Bit(7).String(); got != "Bit(7)" {
		t.Errorf("invalid bit String() = %q", got)
	}
}

func TestBitKnownBool(t *testing.T) {
	if !B0.Known() || !B1.Known() {
		t.Error("0/1 must be Known")
	}
	if BX.Known() || BZ.Known() {
		t.Error("X/Z must not be Known")
	}
	if v, ok := B1.Bool(); !ok || !v {
		t.Errorf("B1.Bool() = %v, %v", v, ok)
	}
	if v, ok := B0.Bool(); !ok || v {
		t.Errorf("B0.Bool() = %v, %v", v, ok)
	}
	if _, ok := BX.Bool(); ok {
		t.Error("BX.Bool() ok = true")
	}
	if _, ok := BZ.Bool(); ok {
		t.Error("BZ.Bool() ok = true")
	}
}

func TestFromBool(t *testing.T) {
	if FromBool(true) != B1 || FromBool(false) != B0 {
		t.Error("FromBool mapping wrong")
	}
}

func TestParseBit(t *testing.T) {
	good := map[byte]Bit{'0': B0, '1': B1, 'x': BX, 'X': BX, 'z': BZ, 'Z': BZ}
	for c, want := range good {
		got, err := ParseBit(c)
		if err != nil || got != want {
			t.Errorf("ParseBit(%q) = %v, %v; want %v", c, got, err, want)
		}
	}
	if _, err := ParseBit('q'); err == nil {
		t.Error("ParseBit('q') did not fail")
	}
}

func TestBitAndTruthTable(t *testing.T) {
	// Binary subset must match Boolean AND.
	for _, a := range []Bit{B0, B1} {
		for _, b := range []Bit{B0, B1} {
			av, _ := a.Bool()
			bv, _ := b.Bool()
			if got := a.And(b); got != FromBool(av && bv) {
				t.Errorf("%v AND %v = %v", a, b, got)
			}
		}
	}
	// 0 dominates regardless of the unknown operand.
	for _, u := range []Bit{BX, BZ} {
		if B0.And(u) != B0 || u.And(B0) != B0 {
			t.Errorf("0 AND %v must be 0", u)
		}
		if B1.And(u) != BX || u.And(B1) != BX {
			t.Errorf("1 AND %v must be X", u)
		}
	}
	if BX.And(BX) != BX || BZ.And(BZ) != BX {
		t.Error("unknown AND unknown must be X")
	}
}

func TestBitOrTruthTable(t *testing.T) {
	for _, a := range []Bit{B0, B1} {
		for _, b := range []Bit{B0, B1} {
			av, _ := a.Bool()
			bv, _ := b.Bool()
			if got := a.Or(b); got != FromBool(av || bv) {
				t.Errorf("%v OR %v = %v", a, b, got)
			}
		}
	}
	for _, u := range []Bit{BX, BZ} {
		if B1.Or(u) != B1 || u.Or(B1) != B1 {
			t.Errorf("1 OR %v must be 1", u)
		}
		if B0.Or(u) != BX || u.Or(B0) != BX {
			t.Errorf("0 OR %v must be X", u)
		}
	}
}

func TestBitXorNot(t *testing.T) {
	if B0.Xor(B1) != B1 || B1.Xor(B1) != B0 || B0.Xor(B0) != B0 {
		t.Error("binary XOR wrong")
	}
	for _, u := range []Bit{BX, BZ} {
		if B0.Xor(u) != BX || B1.Xor(u) != BX {
			t.Errorf("XOR with %v must be X", u)
		}
		if u.Not() != BX {
			t.Errorf("NOT %v must be X", u)
		}
	}
	if B0.Not() != B1 || B1.Not() != B0 {
		t.Error("binary NOT wrong")
	}
}

func TestBitDerivedGates(t *testing.T) {
	for a := Bit(0); a < 4; a++ {
		for b := Bit(0); b < 4; b++ {
			if a.Nand(b) != a.And(b).Not() {
				t.Errorf("NAND(%v,%v) inconsistent", a, b)
			}
			if a.Nor(b) != a.Or(b).Not() {
				t.Errorf("NOR(%v,%v) inconsistent", a, b)
			}
			if a.Xnor(b) != a.Xor(b).Not() {
				t.Errorf("XNOR(%v,%v) inconsistent", a, b)
			}
		}
	}
}

// randomBit generates one of the four levels from a rand source.
func randomBit(r *rand.Rand) Bit { return Bit(r.Intn(4)) }

func TestBitCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBit(r), randomBit(r)
		return a.And(b) == b.And(a) && a.Or(b) == b.Or(a) && a.Xor(b) == b.Xor(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitDeMorganProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBit(r), randomBit(r)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitMonotonicityProperty(t *testing.T) {
	// Pessimism property: if an operator yields a known result with an X
	// input, the result must be identical for both refinements of that X.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBit(r)
		ops := []func(Bit, Bit) Bit{Bit.And, Bit.Or, Bit.Xor}
		for _, op := range ops {
			got := op(BX, b)
			if got.Known() && (op(B0, b) != got || op(B1, b) != got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Nand returns NOT(b AND o).
func (b Bit) Nand(o Bit) Bit { return b.And(o).Not() }

// Nor returns NOT(b OR o).
func (b Bit) Nor(o Bit) Bit { return b.Or(o).Not() }

// Xnor returns NOT(b XOR o).
func (b Bit) Xnor(o Bit) Bit { return b.Xor(o).Not() }
