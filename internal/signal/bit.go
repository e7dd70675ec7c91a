// Package signal defines the logic-value system shared by every event in
// the gocad simulation kernel: four-valued single bits (0, 1, X, Z) and
// multi-bit words. These are the payloads carried by signal tokens across
// connectors, and the values exchanged with remote IP components — by
// design the ONLY design information that may cross the IP-protection
// boundary (see internal/security).
package signal

import "fmt"

// Bit is a four-valued logic level, following the usual HDL semantics:
// strong low, strong high, unknown, and high impedance.
type Bit uint8

// The four logic levels. The zero value is B0 so that freshly allocated
// words start at logic low, matching a powered-up-and-reset net.
const (
	B0 Bit = iota // strong logic low
	B1            // strong logic high
	BX            // unknown
	BZ            // high impedance (undriven)
)

// nBits is the number of distinct logic levels; used to size lookup tables.
const nBits = 4

// String returns the single-character HDL spelling of the level.
func (b Bit) String() string {
	switch b {
	case B0:
		return "0"
	case B1:
		return "1"
	case BX:
		return "X"
	case BZ:
		return "Z"
	}
	return fmt.Sprintf("Bit(%d)", uint8(b))
}

// Known reports whether b carries a definite binary value (0 or 1).
func (b Bit) Known() bool { return b == B0 || b == B1 }

// Bool converts a known bit to a Go bool. It reports ok=false for X or Z.
func (b Bit) Bool() (v, ok bool) {
	switch b {
	case B0:
		return false, true
	case B1:
		return true, true
	}
	return false, false
}

// FromBool converts a Go bool to a strong logic level.
func FromBool(v bool) Bit {
	if v {
		return B1
	}
	return B0
}

// ParseBit converts the single-character HDL spelling back to a Bit.
// It accepts 0, 1, x, X, z and Z.
func ParseBit(c byte) (Bit, error) {
	switch c {
	case '0':
		return B0, nil
	case '1':
		return B1, nil
	case 'x', 'X':
		return BX, nil
	case 'z', 'Z':
		return BZ, nil
	}
	return BX, fmt.Errorf("signal: invalid bit character %q", c)
}

// Four-valued truth tables. A Z input behaves as X for logic operators
// (an undriven input to a gate reads as unknown), which is the standard
// pessimistic composition rule used by event-driven gate simulators.
var (
	andTable [nBits][nBits]Bit
	orTable  [nBits][nBits]Bit
	xorTable [nBits][nBits]Bit
	notTable [nBits]Bit
)

func init() {
	// Normalize Z to X on gate inputs.
	norm := func(b Bit) Bit {
		if b == BZ {
			return BX
		}
		return b
	}
	for a := Bit(0); a < nBits; a++ {
		na := norm(a)
		notTable[a] = BX
		if na == B0 {
			notTable[a] = B1
		} else if na == B1 {
			notTable[a] = B0
		}
		for b := Bit(0); b < nBits; b++ {
			nb := norm(b)
			// AND: 0 dominates; 1&1=1; anything else X.
			switch {
			case na == B0 || nb == B0:
				andTable[a][b] = B0
			case na == B1 && nb == B1:
				andTable[a][b] = B1
			default:
				andTable[a][b] = BX
			}
			// OR: 1 dominates; 0|0=0; anything else X.
			switch {
			case na == B1 || nb == B1:
				orTable[a][b] = B1
			case na == B0 && nb == B0:
				orTable[a][b] = B0
			default:
				orTable[a][b] = BX
			}
			// XOR: known^known, else X.
			if na.Known() && nb.Known() {
				if na != nb {
					xorTable[a][b] = B1
				} else {
					xorTable[a][b] = B0
				}
			} else {
				xorTable[a][b] = BX
			}
		}
	}
}

// And returns the four-valued conjunction of b and o.
func (b Bit) And(o Bit) Bit { return andTable[b&3][o&3] }

// Or returns the four-valued disjunction of b and o.
func (b Bit) Or(o Bit) Bit { return orTable[b&3][o&3] }

// Xor returns the four-valued exclusive-or of b and o.
func (b Bit) Xor(o Bit) Bit { return xorTable[b&3][o&3] }

// Not returns the four-valued negation of b.
func (b Bit) Not() Bit { return notTable[b&3] }
