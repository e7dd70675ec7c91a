package iplib

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rmi"
	"repro/internal/signal"
	"repro/internal/wire"
)

// responseTypes returns a zero value of every response envelope a client
// decodes from a provider, in a fixed order the fuzz target indexes.
func responseTypes() []rmi.BinaryDecoder {
	return []rmi.BinaryDecoder{
		&EvalResp{}, &PowerBatchResp{}, &TimingBatchResp{}, &StaticResp{},
		&FaultListResp{}, &FaultTableResp{}, &TestSetResp{}, &FeesResp{},
		&CatalogueResp{}, &BindResp{},
	}
}

// FuzzDecodeResponses feeds fuzzed bytes to every response type's
// DecodeFrom: the client side of the trust boundary, where the bytes come
// from a provider. A decode may fail but never panic; a detection table
// whose input word is wider than signal.MaxWordWidth must fail; and
// anything that decodes must re-encode to bytes that decode to an equal
// value and re-encode identically.
func FuzzDecodeResponses(f *testing.F) {
	types := responseTypes()
	index := make(map[reflect.Type]int, len(types))
	for i, d := range types {
		index[reflect.TypeOf(d)] = i
	}
	for _, p := range binaryPairs() {
		if i, ok := index[reflect.TypeOf(p.out)]; ok {
			f.Add(uint8(i), p.in.(rmi.BinaryAppender).AppendTo(nil))
		}
	}
	// Fault-list replies of empty names only and of many names, which
	// wire.Strings carves from one copied buffer.
	list := index[reflect.TypeOf(&FaultListResp{})]
	f.Add(uint8(list), FaultListResp{Names: []string{"", "", ""}}.AppendTo(nil))
	many := make([]string, 300)
	for i := range many {
		many[i] = fmt.Sprintf("g%d/sa%d", i, i%2)
	}
	many[150] = ""
	f.Add(uint8(list), FaultListResp{Names: many}.AppendTo(nil))
	// A detection table whose input word is one bit too wide.
	wide := wire.AppendBits(nil, make([]signal.Bit, signal.MaxWordWidth+1))
	wide = wire.AppendWord(wide, signal.WordFromUint64(0, 2))
	f.Add(uint8(index[reflect.TypeOf(&FaultTableResp{})]), wire.AppendUvarint(wide, 0))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		i := int(kind) % len(types)
		dec := responseTypes()[i]
		err := dec.DecodeFrom(data)
		if _, ok := dec.(*FaultTableResp); ok {
			if n, _, verr := wire.Uvarint(data); verr == nil && n > signal.MaxWordWidth && err == nil {
				t.Fatalf("detection table with a %d-bit input word decoded", n)
			}
		}
		if err != nil {
			return
		}
		enc := dec.(rmi.BinaryAppender).AppendTo(nil)
		again := responseTypes()[i]
		if err := again.DecodeFrom(enc); err != nil {
			t.Fatalf("%T: re-encoding of a decoded value does not decode: %v", dec, err)
		}
		// %#v rather than reflect.DeepEqual: a fuzzed float may be NaN.
		if a, b := fmt.Sprintf("%#v", dec), fmt.Sprintf("%#v", again); a != b {
			t.Fatalf("round trip changed the value:\n first  %s\n second %s", a, b)
		}
		if enc2 := again.(rmi.BinaryAppender).AppendTo(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: re-encoding is not stable:\n % x\n % x", dec, enc, enc2)
		}
	})
}
