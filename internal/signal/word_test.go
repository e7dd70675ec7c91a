package signal

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWordNegativeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WordFromUint64(0, -1) did not panic")
		}
	}()
	WordFromUint64(0, -1)
}

func TestUnknownWord(t *testing.T) {
	w := UnknownWord(4)
	if w.Known() {
		t.Error("UnknownWord reported Known")
	}
	if _, ok := w.Uint64(); ok {
		t.Error("UnknownWord converted to uint64")
	}
	for i := 0; i < 4; i++ {
		if w.Bit(i) != BX {
			t.Errorf("bit %d = %v, want X", i, w.Bit(i))
		}
	}
}

func TestWordFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := WordFromUint64(v, 64)
		got, ok := w.Uint64()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordFromUint64Truncates(t *testing.T) {
	w := WordFromUint64(0xFF, 4)
	v, ok := w.Uint64()
	if !ok || v != 0xF {
		t.Errorf("truncated word = %d, %v; want 15", v, ok)
	}
}

func TestWordUint64TooWide(t *testing.T) {
	for name, build := range map[string]func(){
		"UnknownWord":    func() { UnknownWord(65) },
		"WordFromUint64": func() { WordFromUint64(1, 65) },
		"WordFromBits":   func() { WordFromBits(make([]Bit, 65)) },
		"Concat":         func() { WordFromUint64(0, 33).Concat(WordFromUint64(0, 32)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s built a 65-bit word", name)
				}
			}()
			build()
		}()
	}
	if _, err := ParseWord(strings.Repeat("1", 65)); err == nil {
		t.Error("ParseWord accepted a 65-bit word")
	}
	if w, err := ParseWord(strings.Repeat("1", 64)); err != nil || w.Width() != 64 {
		t.Errorf("ParseWord of 64 bits = %v, %v", w, err)
	}
}

func TestParseWordAndString(t *testing.T) {
	w, err := ParseWord("1X0Z")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.String(); got != "1X0Z" {
		t.Errorf("round trip = %q", got)
	}
	// MSB-first: "1X0Z" → bit3=1, bit2=X, bit1=0, bit0=Z.
	if w.Bit(3) != B1 || w.Bit(2) != BX || w.Bit(1) != B0 || w.Bit(0) != BZ {
		t.Errorf("bit layout wrong: %v", w.AppendBits(nil))
	}
	if _, err := ParseWord("10q"); err == nil {
		t.Error("ParseWord accepted invalid char")
	}
}

func TestWordStringValueAgreement(t *testing.T) {
	w := WordFromUint64(6, 4)
	if got := w.String(); got != "0110" {
		t.Errorf("WordFromUint64(6,4).String() = %q, want 0110", got)
	}
}

func TestWordBitOutOfRange(t *testing.T) {
	w := WordFromUint64(0, 4)
	if w.Bit(-1) != BX || w.Bit(4) != BX {
		t.Error("out-of-range Bit() must return X")
	}
}

func TestWordWithBitIndependence(t *testing.T) {
	w := WordFromUint64(5, 4)
	c := w.WithBit(0, BX)
	if !w.Known() || c.Known() {
		t.Error("WithBit must return a changed copy and leave the original alone")
	}
	if c.String() != "010X" {
		t.Errorf("WithBit(0, X) of 0101 = %s", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("WithBit out of range did not panic")
		}
	}()
	w.WithBit(4, B1)
}

func TestWordEqual(t *testing.T) {
	a := WordFromUint64(5, 4)
	b := WordFromUint64(5, 4)
	c := WordFromUint64(5, 5)
	d := WordFromUint64(4, 4)
	if !a.Equal(b) {
		t.Error("equal words compared unequal")
	}
	if a.Equal(c) {
		t.Error("different widths compared equal")
	}
	if a.Equal(d) {
		t.Error("different values compared equal")
	}
}

func TestWordSlice(t *testing.T) {
	w, _ := ParseWord("1100")
	lo := w.Slice(0, 2)
	if lo.String() != "00" {
		t.Errorf("low slice = %q", lo.String())
	}
	hi := w.Slice(2, 4)
	if hi.String() != "11" {
		t.Errorf("high slice = %q", hi.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid slice did not panic")
		}
	}()
	w.Slice(3, 2)
}

func TestWordConcat(t *testing.T) {
	lo, _ := ParseWord("01")
	hi, _ := ParseWord("10")
	c := lo.Concat(hi)
	if c.String() != "1001" {
		t.Errorf("concat = %q, want 1001", c.String())
	}
}

func TestWordToggleCount(t *testing.T) {
	a, _ := ParseWord("1010")
	b, _ := ParseWord("0110")
	if n := a.ToggleCount(b); n != 2 {
		t.Errorf("toggles = %d, want 2", n)
	}
	x, _ := ParseWord("10X0")
	if n := a.ToggleCount(x); n != 0 {
		t.Errorf("toggles vs X word = %d, want 0", n)
	}
}

func TestWordToggleCountSymmetryProperty(t *testing.T) {
	f := func(av, bv uint64) bool {
		a := WordFromUint64(av, 32)
		b := WordFromUint64(bv, 32)
		return a.ToggleCount(b) == b.ToggleCount(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordSliceConcatInverseProperty(t *testing.T) {
	f := func(v uint64, split uint8) bool {
		w := WordFromUint64(v, 32)
		k := int(split) % 33
		return w.Slice(0, k).Concat(w.Slice(k, 32)).Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitValueInterface(t *testing.T) {
	var v Value = BitValue{B: B1}
	if v.ValueWidth() != 1 || v.String() != "1" {
		t.Error("BitValue basics wrong")
	}
	if !v.EqualValue(BitValue{B: B1}) || v.EqualValue(BitValue{B: B0}) {
		t.Error("BitValue equality wrong")
	}
	if v.EqualValue(WordValue{W: WordFromUint64(1, 1)}) {
		t.Error("cross-type equality must be false")
	}
}

func TestWordValueInterface(t *testing.T) {
	w := WordFromUint64(9, 4)
	var v Value = WordValue{W: w}
	if v.ValueWidth() != 4 || v.String() != "1001" {
		t.Error("WordValue basics wrong")
	}
	if !v.EqualValue(WordValue{W: WordFromUint64(9, 4)}) {
		t.Error("equal words compared unequal")
	}
	if v.EqualValue(WordValue{W: w.WithBit(0, BX)}) || v.EqualValue(WordValue{W: WordFromUint64(9, 5)}) {
		t.Error("a different bit or width compared equal")
	}
	if v.EqualValue(BitValue{B: B1}) {
		t.Error("cross-type equality must be false")
	}
}

func TestWordRandomRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		width := 1 + r.Intn(64)
		v := r.Uint64()
		if width < 64 {
			v &= (1 << uint(width)) - 1
		}
		w := WordFromUint64(v, width)
		got, ok := w.Uint64()
		if !ok || got != v {
			t.Fatalf("width %d value %d: round trip %d, %v", width, v, got, ok)
		}
		parsed, err := ParseWord(w.String())
		if err != nil || !parsed.Equal(w) {
			t.Fatalf("string round trip failed for %v", w)
		}
	}
}

// TestWordMatchesBitModel checks the packed rails against a per-bit
// reference model on seeded four-valued words of every width, including
// toggle counts between words of different widths.
func TestWordMatchesBitModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func() []Bit {
		bits := make([]Bit, r.Intn(MaxWordWidth+1))
		for i := range bits {
			bits[i] = randomBit(r)
		}
		return bits
	}
	for i := 0; i < 500; i++ {
		a, b := draw(), draw()
		wa, wb := WordFromBits(a), WordFromBits(b)
		if got := wa.AppendBits(nil); !slices.Equal(got, a) {
			t.Fatalf("WordFromBits(%v).AppendBits = %v", a, got)
		}
		known, toggles := true, 0
		var v uint64
		for j, x := range a {
			if wa.Bit(j) != x {
				t.Fatalf("%v: bit %d = %v, want %v", a, j, wa.Bit(j), x)
			}
			known = known && x.Known()
			if x == B1 {
				v |= 1 << uint(j)
			}
			if j < len(b) && x.Known() && b[j].Known() && x != b[j] {
				toggles++
			}
		}
		if got, ok := wa.Uint64(); wa.Known() != known || ok != known || (known && got != v) {
			t.Fatalf("%v: Known %v, Uint64 %d/%v; want %v, %d", a, wa.Known(), got, ok, known, v)
		}
		if n := wa.ToggleCount(wb); n != toggles {
			t.Fatalf("%v vs %v: %d toggles, want %d", a, b, n, toggles)
		}
		lo := r.Intn(len(a) + 1)
		hi := lo + r.Intn(len(a)-lo+1)
		if got := wa.Slice(lo, hi); !got.Equal(WordFromBits(a[lo:hi])) {
			t.Fatalf("%v: Slice(%d,%d) = %v", a, lo, hi, got)
		}
		if len(a)+len(b) <= MaxWordWidth {
			cat := append(append([]Bit(nil), a...), b...)
			if got := wa.Concat(wb); !got.Equal(WordFromBits(cat)) {
				t.Fatalf("%v ++ %v = %v", a, b, got)
			}
		}
	}
}
