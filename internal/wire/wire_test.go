package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/signal"
)

// codec is one primitive under test: enc appends a fixed value, dec
// consumes one value and reports it back for comparison.
type codec struct {
	name string
	want any
	enc  func([]byte) []byte
	dec  func([]byte) (any, []byte, error)
}

func codecs() []codec {
	bits := []signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ, signal.B1}
	return []codec{
		{"Uvarint", uint64(1) << 63,
			func(b []byte) []byte { return AppendUvarint(b, 1<<63) },
			func(b []byte) (any, []byte, error) { return wrap(Uvarint(b)) }},
		{"Varint", int64(math.MinInt64),
			func(b []byte) []byte { return AppendVarint(b, math.MinInt64) },
			func(b []byte) (any, []byte, error) { return wrap(Varint(b)) }},
		{"Bytes", []byte("se\x00ction"),
			func(b []byte) []byte { return AppendBytes(b, []byte("se\x00ction")) },
			func(b []byte) (any, []byte, error) { return wrap(Bytes(b)) }},
		{"String", "ünïcode",
			func(b []byte) []byte { return AppendString(b, "ünïcode") },
			func(b []byte) (any, []byte, error) { return wrap(String(b)) }},
		{"Float64", -1e300,
			func(b []byte) []byte { return AppendFloat64(b, -1e300) },
			func(b []byte) (any, []byte, error) { return wrap(Float64(b)) }},
		{"Float64s", []float64{0.25, math.Inf(1), 0},
			func(b []byte) []byte { return AppendFloat64s(b, []float64{0.25, math.Inf(1), 0}) },
			func(b []byte) (any, []byte, error) { return wrap(Float64s(b)) }},
		{"Strings", []string{"a", "", "ccc"},
			func(b []byte) []byte { return AppendStrings(b, []string{"a", "", "ccc"}) },
			func(b []byte) (any, []byte, error) { return wrap(Strings(b)) }},
		{"Bits", bits,
			func(b []byte) []byte { return AppendBits(b, bits) },
			func(b []byte) (any, []byte, error) { return wrap(Bits(b)) }},
		{"Patterns", [][]signal.Bit{bits, {signal.B1}},
			func(b []byte) []byte { return AppendPatterns(b, [][]signal.Bit{bits, {signal.B1}}) },
			func(b []byte) (any, []byte, error) { return wrap(Patterns(b)) }},
		{"Word", signal.WordFromBits(bits),
			func(b []byte) []byte { return AppendWord(b, signal.WordFromBits(bits)) },
			func(b []byte) (any, []byte, error) { return wrap(Word(b)) }},
		{"Bool", true,
			func(b []byte) []byte { return AppendBool(b, true) },
			func(b []byte) (any, []byte, error) { return wrap(Bool(b)) }},
	}
}

func wrap[T any](v T, rest []byte, err error) (any, []byte, error) { return v, rest, err }

// TestRoundTrip: every decoder returns exactly what its encoder wrote
// and hands back the bytes that follow untouched.
func TestRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		t.Run(c.name, func(t *testing.T) {
			b := append(c.enc([]byte{0xAA}), 0xEE)
			got, rest, err := c.dec(b[1:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("decoded %#v, want %#v", got, c.want)
			}
			if len(rest) != 1 || rest[0] != 0xEE {
				t.Errorf("rest = % x, want ee", rest)
			}
		})
	}
}

// TestTruncation: every proper prefix of an encoding is an error, never
// a panic or a short value.
func TestTruncation(t *testing.T) {
	for _, c := range codecs() {
		t.Run(c.name, func(t *testing.T) {
			b := c.enc(nil)
			for cut := 0; cut < len(b); cut++ {
				if _, _, err := c.dec(b[:cut]); err == nil {
					t.Errorf("%d/%d-byte prefix decoded", cut, len(b))
				}
			}
		})
	}
}

// TestVarintOverflow: a varint longer than 64 bits is rejected by every
// decoder that starts with one.
func TestVarintOverflow(t *testing.T) {
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for _, c := range codecs() {
		switch c.name {
		case "Float64", "Bool":
			continue // fixed-width, no varint
		}
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := c.dec(over); err == nil || errors.Is(err, ErrTruncated) {
				t.Errorf("err = %v, want a varint overflow", err)
			}
		})
	}
}

// TestLengthPastEnd: a length or count prefix promising more than the
// input holds fails with ErrTruncated before any allocation sized from
// it.
func TestLengthPastEnd(t *testing.T) {
	huge := AppendUvarint(nil, 1<<40)
	for _, c := range codecs() {
		switch c.name {
		case "Uvarint", "Varint", "Float64", "Bool":
			continue // no length prefix
		}
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := c.dec(append(huge, 1, 2, 3)); !errors.Is(err, ErrTruncated) {
				t.Errorf("err = %v, want ErrTruncated", err)
			}
		})
	}
}

// TestBoolCanonical: only 0 and 1 are booleans.
func TestBoolCanonical(t *testing.T) {
	if _, _, err := Bool([]byte{2}); err == nil {
		t.Error("boolean byte 2 accepted")
	}
}

// TestCountNearOverflow: an element count whose byte size would
// overflow 64 bits ((n+3)/4 packed bits, 8n float bytes) is a truncation
// error, not a panic in make.
func TestCountNearOverflow(t *testing.T) {
	for _, n := range []uint64{^uint64(0), ^uint64(0) - 1, ^uint64(0) - 2, 1<<61 + 1} {
		in := append(AppendUvarint(nil, n), make([]byte, 8)...)
		if _, _, err := Bits(in); !errors.Is(err, ErrTruncated) {
			t.Errorf("Bits(%d): err = %v, want ErrTruncated", n, err)
		}
		if _, _, err := Word(in); !errors.Is(err, ErrTruncated) {
			t.Errorf("Word(%d): err = %v, want ErrTruncated", n, err)
		}
		if _, _, err := Float64s(in); !errors.Is(err, ErrTruncated) {
			t.Errorf("Float64s(%d): err = %v, want ErrTruncated", n, err)
		}
	}
}

// TestWordTooWide: a word wider than signal.MaxWordWidth decodes to an
// error, never a panic — the bytes may come from an untrusted peer.
func TestWordTooWide(t *testing.T) {
	in := AppendBits(nil, make([]signal.Bit, signal.MaxWordWidth+1))
	if _, _, err := Word(in); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("65-bit word: err = %v, want a width error", err)
	}
	in = AppendBits(nil, make([]signal.Bit, signal.MaxWordWidth))
	if w, rest, err := Word(in); err != nil || len(rest) != 0 || w.Width() != signal.MaxWordWidth {
		t.Errorf("64-bit word = %v, %d bytes left, %v", w, len(rest), err)
	}
}
