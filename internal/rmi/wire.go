// Package rmi is gocad's stand-in for Java RMI: a compact remote-method
// protocol over TCP (or any net.Conn) with HMAC-authenticated sessions,
// client-side stubs, an enforced marshalling policy (only port-value
// data crosses the IP boundary), and hooks for network emulation and
// blocked-time metering. It retains the properties the paper relies on:
// remote method invocation with proper argument/return serialization, a
// secure channel between IP user and IP provider, and per-call overhead
// that pattern buffering must amortize.
//
// Every message is framed in hand-rolled wire format v1 (DESIGN.md §12)
// — fixed little-endian header, varint fields, length-prefixed
// sections, pooled buffers — so steady-state framing allocates nothing.
// Payloads are the envelopes' own AppendTo/DecodeFrom encodings behind a
// one-byte tag; no reflection touches the wire.
package rmi

import (
	"fmt"

	"repro/internal/security"
)

// frame kinds.
const (
	kindHello uint8 = iota + 1
	kindWelcome
	kindRequest
	kindResponse
)

// frame is the single wire envelope; unused fields stay zero.
type frame struct {
	Kind    uint8
	ID      uint64
	Session string
	Method  string
	Payload []byte
	Err     string
	Client  string
	Nonce   []byte
	Tag     string
}

// binPayloadTag opens every payload: the envelope's AppendTo encoding
// follows it. Decode rejects a payload that does not start with it.
const binPayloadTag = 0x00

// BinaryAppender is implemented by every payload envelope: AppendTo
// appends the type's wire form to b and returns the extended slice.
type BinaryAppender interface {
	AppendTo(b []byte) []byte
}

// BinaryDecoder is the decode half of BinaryAppender, implemented on the
// pointer type. DecodeFrom must consume b exactly and must validate
// every length prefix against the bytes present — it sees untrusted
// input.
type BinaryDecoder interface {
	DecodeFrom(b []byte) error
}

// EncodePayload serializes a payload envelope for transport: the tag
// byte, then the envelope's AppendTo encoding. A type without AppendTo
// cannot cross the wire.
func EncodePayload(v any) ([]byte, error) {
	return appendPayload(nil, v)
}

// appendPayload is EncodePayload into a caller-provided buffer; the
// server's pooled response frames recycle their payload buffers through
// here.
func appendPayload(dst []byte, v any) ([]byte, error) {
	ap, ok := v.(BinaryAppender)
	if !ok {
		return nil, fmt.Errorf("rmi: payload %T does not implement AppendTo", v)
	}
	return ap.AppendTo(append(dst, binPayloadTag)), nil
}

// Decode deserializes a tagged payload into v, a pointer implementing
// BinaryDecoder.
func Decode(b []byte, v any) error {
	if len(b) == 0 || b[0] != binPayloadTag {
		return fmt.Errorf("rmi: payload for %T lacks the binary tag", v)
	}
	bd, ok := v.(BinaryDecoder)
	if !ok {
		return fmt.Errorf("rmi: payload for %T, which does not implement DecodeFrom", v)
	}
	if err := bd.DecodeFrom(b[1:]); err != nil {
		return fmt.Errorf("rmi: decode into %T: %w", v, err)
	}
	return nil
}

// PortData is implemented by every request and response envelope to
// expose its design-derived content to the marshalling policy. An
// envelope that cannot enumerate its port-value data cannot cross the
// boundary at all — this is what makes the policy a default-deny check
// rather than a blocklist.
type PortData interface {
	PortData() []any
}

// PortCounter is an optional refinement of PortData for envelopes whose
// fields are statically port-value types (bits, words, numeric scalars,
// strings, and slices thereof): PortValueCount returns the total the
// policy's canonical walk would compute over PortData(), so the
// outbound check reduces to a budget comparison without materializing
// the []any boxing on every call — the last per-call allocation the
// wire codec cannot remove. The two counts must agree; the iplib
// envelope tests cross-check every implementation against
// security.ValueCount.
type PortCounter interface {
	PortValueCount() int
}

// checkOutbound vets one envelope against the marshalling policy,
// taking the self-counting fast path when the envelope offers it.
func checkOutbound(policy *security.MarshalPolicy, pd PortData) error {
	if pc, ok := pd.(PortCounter); ok {
		return policy.CheckCount(pc.PortValueCount())
	}
	for _, v := range pd.PortData() {
		if err := policy.CheckOutbound(v); err != nil {
			return err
		}
	}
	return nil
}

// RemoteError is returned by Call when the remote method failed.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rmi: remote %s: %s", e.Method, e.Msg)
}
