package security

import (
	"fmt"

	"repro/internal/signal"
)

// The marshalling policy is the user-side half of IP protection: because
// a remote IP component needs only the information available at its own
// ports to perform any estimation or simulation, gocad transmits ONLY
// that information over the RPC channel. CheckOutbound is invoked on
// every payload before it crosses the boundary, and rejects anything that
// could leak the surrounding design: module or connector references,
// functions, channels, or payloads exceeding the configured budget.

// MarshalPolicy bounds outbound payloads.
type MarshalPolicy struct {
	// MaxValues bounds the number of scalar signal values per payload
	// (buffered patterns count each value). Zero means DefaultMaxValues.
	MaxValues int
}

// DefaultMaxValues is the per-payload value budget when unset.
const DefaultMaxValues = 1 << 20

// DefaultPolicy is the policy used by the RPC layer when none is given.
var DefaultPolicy = MarshalPolicy{}

// CheckOutbound verifies that a payload consists only of port-value data:
// bits, words, numeric scalars, strings naming methods or faults, and
// (recursively) slices thereof. It returns a descriptive error for
// anything else.
func (p MarshalPolicy) CheckOutbound(v any) error {
	max := p.MaxValues
	if max == 0 {
		max = DefaultMaxValues
	}
	n, err := countValues(v)
	if err != nil {
		return err
	}
	if n > max {
		return fmt.Errorf("security: payload carries %d values, policy allows %d", n, max)
	}
	return nil
}

// CheckCount enforces the value budget for envelopes that report their
// own port-value count (rmi.PortCounter): such envelopes are statically
// port-value-typed, so the per-value content walk is redundant and only
// the budget applies. The reported count covers the whole payload, so
// this check is at least as strict as the per-element CheckOutbound
// walk it replaces.
func (p MarshalPolicy) CheckCount(n int) error {
	max := p.MaxValues
	if max == 0 {
		max = DefaultMaxValues
	}
	if n > max {
		return fmt.Errorf("security: payload carries %d values, policy allows %d", n, max)
	}
	return nil
}

// ValueCount exposes the policy's value metric for one port-data
// element, so self-counting envelopes can be cross-checked against the
// canonical walk.
//
// Used only by tests: TestPortValueCountMatchesCanonicalWalk.
func ValueCount(v any) (int, error) { return countValues(v) }

// countValues walks a payload counting scalar values and rejecting
// non-port-value content.
func countValues(v any) (int, error) {
	switch x := v.(type) {
	case nil:
		return 0, nil
	case bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, float32, float64, string:
		return 1, nil
	case signal.Bit, signal.BitValue:
		return 1, nil
	case signal.Word:
		return x.Width(), nil
	case signal.WordValue:
		return x.W.Width(), nil
	case []signal.Bit:
		return len(x), nil
	case []signal.Word:
		n := 0
		for _, w := range x {
			n += w.Width()
		}
		return n, nil
	case [][]signal.Bit:
		n := 0
		for _, row := range x {
			n += len(row)
		}
		return n, nil
	case []uint64:
		return len(x), nil
	case []float64:
		return len(x), nil
	case []string:
		return len(x), nil
	case []any:
		n := 0
		for _, e := range x {
			m, err := countValues(e)
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil
	default:
		return 0, fmt.Errorf("security: payload type %T is not port-value data and may not cross the IP boundary", v)
	}
}
