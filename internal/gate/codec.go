package gate

import (
	"fmt"

	"repro/internal/wire"
)

// The netlist snapshot is the portable on-disk/on-wire form of a
// netlist, built from the internal/wire primitives: the name, then the
// nets in ID order (name, primary-input flag), then the gates in
// insertion order (kind, input net IDs, output net ID), then the primary
// outputs as net IDs in output order — which need not be ID order. The
// codec exists for provider-side persistence and for the
// model-encryption baseline (internal/sealed), which ships an encrypted
// snapshot to the user — it is NOT part of the virtual-simulation
// protocol, which never serializes netlists across the IP boundary.

// MarshalBinary encodes the netlist structure.
func (n *Netlist) MarshalBinary() ([]byte, error) {
	b := wire.AppendString(nil, n.Name)
	b = wire.AppendUvarint(b, uint64(len(n.nets)))
	for _, ni := range n.nets {
		b = wire.AppendString(b, ni.name)
		b = wire.AppendBool(b, ni.isPI)
	}
	b = wire.AppendUvarint(b, uint64(len(n.gates)))
	for _, g := range n.gates {
		b = wire.AppendUvarint(b, uint64(g.Kind))
		b = wire.AppendUvarint(b, uint64(len(g.In)))
		for _, in := range g.In {
			b = wire.AppendUvarint(b, uint64(in))
		}
		b = wire.AppendUvarint(b, uint64(g.Out))
	}
	b = wire.AppendUvarint(b, uint64(len(n.outputs)))
	for _, id := range n.outputs {
		b = wire.AppendUvarint(b, uint64(id))
	}
	return b, nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary into a
// fresh netlist (n must be empty). Structural violations in the snapshot
// (duplicate drivers, bad arities) are reported as errors rather than
// panics, since snapshots may come from untrusted storage.
func (n *Netlist) UnmarshalBinary(data []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gate: unmarshal: invalid snapshot: %v", r)
		}
	}()
	if err := n.unmarshalBinary(data); err != nil {
		return fmt.Errorf("gate: unmarshal: %w", err)
	}
	return nil
}

func (n *Netlist) unmarshalBinary(b []byte) error {
	if len(n.nets) != 0 || len(n.gates) != 0 {
		return fmt.Errorf("into non-empty netlist %s", n.Name)
	}
	if n.byName == nil {
		n.byName = make(map[string]NetID)
	}
	var err error
	if n.Name, b, err = wire.String(b); err != nil {
		return err
	}
	var count uint64
	if count, b, err = wire.Uvarint(b); err != nil {
		return err
	}
	if count > uint64(len(b)) { // each net takes at least two bytes
		return fmt.Errorf("%d nets, %d bytes left: %w", count, len(b), wire.ErrTruncated)
	}
	n.Reserve(int(count), 0)
	for ; count > 0; count-- {
		var name string
		var isPI bool
		if name, b, err = wire.String(b); err != nil {
			return err
		}
		if isPI, b, err = wire.Bool(b); err != nil {
			return err
		}
		if isPI {
			n.AddInput(name)
		} else {
			n.AddNet(name)
		}
	}
	if count, b, err = wire.Uvarint(b); err != nil {
		return err
	}
	if count > uint64(len(b)) { // each gate takes at least three bytes
		return fmt.Errorf("%d gates, %d bytes left: %w", count, len(b), wire.ErrTruncated)
	}
	n.Reserve(0, int(count))
	for ; count > 0; count-- {
		var kind, arity uint64
		if kind, b, err = wire.Uvarint(b); err != nil {
			return err
		}
		if kind >= uint64(len(kindNames)) {
			return fmt.Errorf("gate kind %d out of range", kind)
		}
		if arity, b, err = wire.Uvarint(b); err != nil {
			return err
		}
		if arity > uint64(len(b)) {
			return fmt.Errorf("%d gate inputs, %d bytes left: %w", arity, len(b), wire.ErrTruncated)
		}
		in := n.carve(int(arity))
		for i := range in {
			if in[i], b, err = n.netRef(b); err != nil {
				return err
			}
		}
		var out NetID
		if out, b, err = n.netRef(b); err != nil {
			return err
		}
		n.addGate(Kind(kind), out, in)
	}
	if count, b, err = wire.Uvarint(b); err != nil {
		return err
	}
	if count > uint64(len(b)) { // each output takes at least one byte
		return fmt.Errorf("%d outputs, %d bytes left: %w", count, len(b), wire.ErrTruncated)
	}
	for ; count > 0; count-- {
		var id NetID
		if id, b, err = n.netRef(b); err != nil {
			return err
		}
		if n.nets[id].isPO {
			return fmt.Errorf("net %d listed twice as an output", id)
		}
		n.MarkOutput(id)
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(b))
	}
	return n.Build()
}

// netRef consumes one net ID and checks it names an existing net.
func (n *Netlist) netRef(b []byte) (NetID, []byte, error) {
	id, rest, err := wire.Uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if id >= uint64(len(n.nets)) {
		return 0, nil, fmt.Errorf("net %d out of range", id)
	}
	return NetID(id), rest, nil
}
