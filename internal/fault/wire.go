package fault

import (
	"fmt"

	"repro/internal/wire"
)

// AppendTo appends the table's wire-format-v1 encoding to b: the input
// and fault-free words as packed bit vectors, then a length-prefixed row
// vector of (output word, fault-name list) pairs. Used by the rmi
// FaultTableResp payload (DESIGN.md §12).
//
//gocad:noalloc
func (dt *DetectionTable) AppendTo(b []byte) []byte {
	b = wire.AppendWord(b, dt.Input)
	b = wire.AppendWord(b, dt.FaultFree)
	b = wire.AppendUvarint(b, uint64(len(dt.Rows)))
	for _, row := range dt.Rows {
		b = wire.AppendWord(b, row.Output)
		b = wire.AppendStrings(b, row.Faults)
	}
	return b
}

// DecodeFrom decodes an AppendTo encoding, consuming buf exactly. It
// validates every length prefix against the bytes present: the input is
// untrusted.
func (dt *DetectionTable) DecodeFrom(buf []byte) error {
	var err error
	*dt = DetectionTable{}
	if dt.Input, buf, err = wire.Word(buf); err != nil {
		return fmt.Errorf("fault: detection table input: %w", err)
	}
	if dt.FaultFree, buf, err = wire.Word(buf); err != nil {
		return fmt.Errorf("fault: detection table fault-free word: %w", err)
	}
	n, buf, err := wire.Uvarint(buf)
	if err != nil {
		return fmt.Errorf("fault: detection table row count: %w", err)
	}
	if n > uint64(len(buf)) {
		return fmt.Errorf("fault: %d detection rows, %d bytes left: %w", n, len(buf), wire.ErrTruncated)
	}
	if n > 0 {
		dt.Rows = make([]DetectionRow, n)
		for i := range dt.Rows {
			if dt.Rows[i].Output, buf, err = wire.Word(buf); err != nil {
				return fmt.Errorf("fault: detection row %d output: %w", i, err)
			}
			if dt.Rows[i].Faults, buf, err = wire.Strings(buf); err != nil {
				return fmt.Errorf("fault: detection row %d faults: %w", i, err)
			}
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("fault: %d trailing bytes after detection table", len(buf))
	}
	return nil
}
