package signal

import (
	"fmt"
	"math/bits"
)

// MaxWordWidth is the widest word a Word can hold: one bit per lane of
// a 64-bit rail.
const MaxWordWidth = 64

// Word is a fixed-width vector of four-valued bits — the payload of
// word-level connectors, the register-transfer-level counterpart of a
// single Bit on a gate-level connector.
//
// It is stored as two 64-bit rails, the same dual-rail layout the gate
// lane kernel uses for nets: rail v holds bit 0 of each Bit code and
// rail u holds bit 1, so B0=(0,0), B1=(1,0), BX=(0,1) and BZ=(1,1).
// Bit i of the word (LSB = 0) is lane i of both rails; lanes at or
// above the width are zero in both. A Word is a plain value: copying it
// copies the bits, and == is Equal.
type Word struct {
	v, u uint64
	n    uint8
}

// mask returns the rail mask of the low n lanes (n in 0..64).
func mask(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// checkWidth panics unless width is 0..MaxWordWidth.
func checkWidth(width int) {
	if width < 0 || width > MaxWordWidth {
		badWidth(width)
	}
}

//go:noinline
func badWidth(width int) {
	panic(fmt.Sprintf("signal: word width %d outside 0..%d", width, MaxWordWidth))
}

// UnknownWord returns a word of the given width with every bit X —
// the canonical "not yet driven" RTL value.
func UnknownWord(width int) Word {
	checkWidth(width)
	return Word{u: mask(width), n: uint8(width)}
}

// WordFromUint64 builds a known word of the given width (0..64) from
// the low `width` bits of v.
//
//gocad:noalloc
func WordFromUint64(v uint64, width int) Word {
	checkWidth(width)
	return Word{v: v & mask(width), n: uint8(width)}
}

// WordFromBits builds a word from LSB-first bits (bits[0] is bit 0).
// Levels outside the four defined ones keep their low two bits.
func WordFromBits(bs []Bit) Word {
	checkWidth(len(bs))
	w := Word{n: uint8(len(bs))}
	for i, b := range bs {
		w.v |= uint64(b&1) << uint(i)
		w.u |= uint64(b>>1&1) << uint(i)
	}
	return w
}

// ParseWord builds a word from its MSB-first string spelling, e.g. "1X0Z".
// Used only by tests: TestParseWordAndString, TestWordSlice.
func ParseWord(s string) (Word, error) {
	if len(s) > MaxWordWidth {
		return Word{}, fmt.Errorf("signal: %d-bit word exceeds %d bits", len(s), MaxWordWidth)
	}
	var w Word
	for i := 0; i < len(s); i++ {
		b, err := ParseBit(s[i])
		if err != nil {
			return Word{}, err
		}
		// MSB first: shift the bits so far up and append b below them.
		w = Word{v: w.v<<1 | uint64(b&1), u: w.u<<1 | uint64(b>>1), n: w.n + 1}
	}
	return w, nil
}

// Width returns the number of bits in the word.
func (w Word) Width() int { return int(w.n) }

// Known reports whether every bit carries a definite binary value.
func (w Word) Known() bool { return w.u == 0 }

// Uint64 converts a known word to an unsigned integer. ok is false if
// any bit is X or Z.
//
//gocad:noalloc
func (w Word) Uint64() (v uint64, ok bool) {
	if w.u != 0 {
		return 0, false
	}
	return w.v, true
}

// Bit returns bit i (LSB = 0), or BX if i is out of range.
//
//gocad:noalloc
func (w Word) Bit(i int) Bit {
	if i < 0 || i >= int(w.n) {
		return BX
	}
	return Bit(w.v>>uint(i)&1 | (w.u>>uint(i)&1)<<1)
}

// WithBit returns w with bit i (LSB = 0) set to b. It panics if i is
// out of range.
//
//gocad:noalloc
func (w Word) WithBit(i int, b Bit) Word {
	if i < 0 || i >= int(w.n) {
		badBit(i, int(w.n))
	}
	m := uint64(1) << uint(i)
	w.v = w.v&^m | uint64(b&1)<<uint(i)
	w.u = w.u&^m | uint64(b>>1&1)<<uint(i)
	return w
}

//go:noinline
func badBit(i, width int) {
	panic(fmt.Sprintf("signal: bit %d of a %d-bit word", i, width))
}

// AppendBits appends the word's bits LSB-first to dst.
func (w Word) AppendBits(dst []Bit) []Bit {
	for i := 0; i < int(w.n); i++ {
		dst = append(dst, w.Bit(i))
	}
	return dst
}

// Equal reports whether both words have identical width and bit levels.
// X compares equal only to X (this is identity of the simulation value,
// not HDL case-equality semantics).
//
//gocad:noalloc
func (w Word) Equal(o Word) bool { return w == o }

// String renders the word MSB-first, e.g. a 4-bit word holding 6 is "0110".
func (w Word) String() string {
	const levels = "01XZ"
	var buf [MaxWordWidth]byte
	s := buf[:w.n]
	for i := range s {
		s[len(s)-1-i] = levels[w.Bit(i)]
	}
	return string(s)
}

// Slice returns bits [lo, hi) as a new word. It panics on an invalid range.
// Used only by tests: TestGoldenWords, TestWordSlice.
//
//gocad:noalloc
func (w Word) Slice(lo, hi int) Word {
	if lo < 0 || hi > int(w.n) || lo > hi {
		badSlice(lo, hi, int(w.n))
	}
	m := mask(hi - lo)
	return Word{v: w.v >> uint(lo) & m, u: w.u >> uint(lo) & m, n: uint8(hi - lo)}
}

//go:noinline
func badSlice(lo, hi, width int) {
	panic(fmt.Sprintf("signal: invalid word slice [%d,%d) of width %d", lo, hi, width))
}

// Concat returns the word whose low bits are w and high bits are hi. It
// panics if the result would be wider than MaxWordWidth.
//
// Used only by tests: TestGoldenWords, TestWordConcat,
// TestWordSliceConcatInverseProperty.
//
//gocad:noalloc
func (w Word) Concat(hi Word) Word {
	n := int(w.n) + int(hi.n)
	checkWidth(n)
	return Word{v: w.v | hi.v<<w.n, u: w.u | hi.u<<w.n, n: uint8(n)}
}

// ToggleCount returns the number of bit positions where w and prev hold
// different known values — the Hamming distance used by toggle-based
// power estimation. Transitions to or from X/Z are not counted.
//
//gocad:noalloc
func (w Word) ToggleCount(prev Word) int {
	m := mask(min(int(w.n), int(prev.n)))
	return bits.OnesCount64((w.v ^ prev.v) &^ (w.u | prev.u) & m)
}
