package signal

import "fmt"

// Value is the interface satisfied by every payload a signal token can
// carry across a connector. The two built-in implementations are BitValue
// (gate-level connectors) and WordValue (word-level connectors); custom
// connectors for abstract representations — the paper's example is video
// frames handled by a DSP — implement Value for their own payload types.
type Value interface {
	fmt.Stringer
	// ValueWidth returns the bit width of the payload, or 0 when width
	// is not meaningful for the representation.
	ValueWidth() int
	// EqualValue reports whether the payload equals another of the same
	// dynamic type. Values of different types are never equal.
	EqualValue(Value) bool
}

// BitValue adapts a single Bit to the Value interface.
type BitValue struct{ B Bit }

// ValueWidth returns 1.
// Used only by tests: TestBitValueInterface.
func (v BitValue) ValueWidth() int { return 1 }

// EqualValue reports equality with another BitValue.
// Used only by tests: TestBitValueInterface.
func (v BitValue) EqualValue(o Value) bool {
	ov, ok := o.(BitValue)
	return ok && ov.B == v.B
}

// String returns the single-character spelling of the bit.
func (v BitValue) String() string { return v.B.String() }

// WordValue adapts a Word to the Value interface. Its 24 bytes hold no
// pointers, so a boxed WordValue is a block the garbage collector never
// scans.
type WordValue struct{ W Word }

// ValueWidth returns the word width.
// Used only by tests: TestWordValueInterface.
func (v WordValue) ValueWidth() int { return v.W.Width() }

// EqualValue reports equality with another WordValue.
// Used only by tests: TestWordValueInterface.
func (v WordValue) EqualValue(o Value) bool {
	ov, ok := o.(WordValue)
	return ok && ov.W.Equal(v.W)
}

// String returns the MSB-first spelling of the word.
func (v WordValue) String() string { return v.W.String() }
