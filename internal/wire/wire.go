// Package wire provides the low-level primitives of gocad's hand-rolled
// binary serialization (wire format v1, DESIGN.md §12): little-endian
// fixed-width integers, unsigned varints, length-prefixed byte and
// string sections, and the packed encodings of the domain's hot payload
// shapes (four-valued signal bits, words, pattern batches, float64
// sample vectors).
//
// Every Append* function appends to a caller-supplied buffer and returns
// the extended slice, so encoders can reuse one scratch buffer across
// calls and allocate nothing in steady state. Every decoder consumes a
// prefix of its input and returns the remaining bytes; decoders are
// strict — a truncated buffer, an over-long varint, or a length prefix
// that exceeds the remaining input yields an error, never a panic, and
// never an allocation sized from unvalidated input (element counts are
// bounds-checked against the bytes actually present before any make).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/signal"
)

// ErrTruncated reports input that ended before the value it promised.
var ErrTruncated = errors.New("wire: truncated input")

// AppendUvarint appends v in unsigned varint encoding.
//
//gocad:noalloc
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// Uvarint consumes one unsigned varint and returns the remaining bytes.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n == 0 {
			return 0, nil, ErrTruncated
		}
		return 0, nil, errors.New("wire: varint overflows 64 bits")
	}
	return v, b[n:], nil
}

// AppendBytes appends a length-prefixed byte section.
//
//gocad:noalloc
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Bytes consumes one length-prefixed byte section. The returned section
// aliases the input; callers that retain it past the input's lifetime
// must copy.
func Bytes(b []byte) (sec, rest []byte, err error) {
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("wire: %d-byte section, %d bytes left: %w", n, len(b), ErrTruncated)
	}
	return b[:n], b[n:], nil
}

// AppendString appends a length-prefixed string section.
//
//gocad:noalloc
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// String consumes one length-prefixed string section (always a copy —
// strings are immutable).
func String(b []byte) (string, []byte, error) {
	sec, rest, err := Bytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(sec), rest, nil
}

// AppendFloat64 appends the IEEE-754 bits of f, little-endian.
//
//gocad:noalloc
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Float64 consumes one little-endian float64.
func Float64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// AppendFloat64s appends a length-prefixed float64 vector.
//
//gocad:noalloc
func AppendFloat64s(b []byte, fs []float64) []byte {
	b = AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = AppendFloat64(b, f)
	}
	return b
}

// Float64s consumes a length-prefixed float64 vector. A nil slice is
// encoded and decoded as length zero.
func Float64s(b []byte) ([]float64, []byte, error) {
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b))/8 {
		return nil, nil, fmt.Errorf("wire: %d floats, %d bytes left: %w", n, len(b), ErrTruncated)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, b[n*8:], nil
}

// AppendStrings appends a length-prefixed vector of strings.
//
//gocad:noalloc
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// Strings consumes a length-prefixed vector of strings. The element
// count is bounds-checked against the remaining input (each element
// needs at least its one-byte length prefix) before allocating.
func Strings(b []byte) ([]string, []byte, error) {
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("wire: %d strings, %d bytes left: %w", n, len(b), ErrTruncated)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]string, n)
	for i := range out {
		out[i], b, err = String(b)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, b, nil
}

// Bits are packed four per byte: the four-valued logic (0,1,X,Z) needs
// two bits per signal. The count prefix carries the exact length.

// packedLen returns the bytes n packed bits occupy, without overflowing
// for any n a varint can carry.
func packedLen(n uint64) uint64 { return n/4 + (n%4+3)/4 }

// AppendBits appends a length-prefixed packed bit vector.
//
//gocad:noalloc
func AppendBits(b []byte, bits []signal.Bit) []byte {
	b = AppendUvarint(b, uint64(len(bits)))
	var acc byte
	for i, bit := range bits {
		acc |= (byte(bit) & 0x3) << uint((i%4)*2)
		if i%4 == 3 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(bits)%4 != 0 {
		b = append(b, acc)
	}
	return b
}

// Bits consumes a length-prefixed packed bit vector.
func Bits(b []byte) ([]signal.Bit, []byte, error) {
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	packed := packedLen(n)
	if packed > uint64(len(b)) {
		return nil, nil, fmt.Errorf("wire: %d bits need %d bytes, %d left: %w", n, packed, len(b), ErrTruncated)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]signal.Bit, n)
	for i := range out {
		out[i] = signal.Bit((b[i/4] >> uint((i%4)*2)) & 0x3)
	}
	return out, b[packed:], nil
}

// AppendPatterns appends a length-prefixed batch of bit patterns.
//
//gocad:noalloc
func AppendPatterns(b []byte, ps [][]signal.Bit) []byte {
	b = AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendBits(b, p)
	}
	return b
}

// Patterns consumes a length-prefixed batch of bit patterns.
func Patterns(b []byte) ([][]signal.Bit, []byte, error) {
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("wire: %d patterns, %d bytes left: %w", n, len(b), ErrTruncated)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([][]signal.Bit, n)
	for i := range out {
		out[i], b, err = Bits(b)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, b, nil
}

// AppendWord appends a signal word as a packed bit vector.
//
//gocad:noalloc
func AppendWord(b []byte, w signal.Word) []byte {
	var bits [signal.MaxWordWidth]signal.Bit
	return AppendBits(b, w.AppendBits(bits[:0]))
}

// Word consumes a signal word. A width above signal.MaxWordWidth is an
// error: the bytes may come from an untrusted peer.
func Word(b []byte) (signal.Word, []byte, error) {
	bits, rest, err := Bits(b)
	if err != nil {
		return signal.Word{}, nil, err
	}
	if len(bits) > signal.MaxWordWidth {
		return signal.Word{}, nil, fmt.Errorf("wire: %d-bit word exceeds %d bits", len(bits), signal.MaxWordWidth)
	}
	return signal.WordFromBits(bits), rest, nil
}

// AppendVarint appends v in zigzag signed varint encoding.
//
//gocad:noalloc
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// Varint consumes one zigzag signed varint.
func Varint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		if n == 0 {
			return 0, nil, ErrTruncated
		}
		return 0, nil, errors.New("wire: varint overflows 64 bits")
	}
	return v, b[n:], nil
}

// AppendBool appends a bool as one byte (0 or 1).
//
//gocad:noalloc
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Bool consumes one boolean byte; values other than 0 and 1 are
// rejected so every valid encoding is canonical.
func Bool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrTruncated
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	}
	return false, nil, fmt.Errorf("wire: boolean byte %#02x", b[0])
}
