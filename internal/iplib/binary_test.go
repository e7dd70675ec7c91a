package iplib

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/rmi"
	"repro/internal/signal"
)

// pair couples one envelope value with the zero-valued pointer the
// decode side fills in, mirroring how rmi dispatches payloads.
type pair struct {
	name string
	in   any // envelope value (rmi.BinaryAppender)
	out  any // pointer to zero value (rmi.BinaryDecoder)
}

func binaryPairs() []pair {
	bits := []signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ, signal.B1}
	patterns := [][]signal.Bit{bits, {signal.B1}, nil, {signal.B0, signal.B0, signal.B0, signal.B0}}
	table := fault.DetectionTable{
		Input:     signal.WordFromBits(bits),
		FaultFree: signal.WordFromBits([]signal.Bit{signal.B1, signal.B0}),
		Rows: []fault.DetectionRow{
			{Output: signal.WordFromBits([]signal.Bit{signal.B0, signal.B1}), Faults: []string{"f3/sa0", "f7/sa1"}},
			{Output: signal.Word{}, Faults: nil},
		},
	}
	return []pair{
		{"EvalReq", EvalReq{Instance: 42, Inputs: bits}, &EvalReq{}},
		{"EvalReq/empty", EvalReq{}, &EvalReq{}},
		{"EvalResp", EvalResp{Outputs: bits}, &EvalResp{}},
		{"PowerBatchReq", PowerBatchReq{Instance: 7, Patterns: patterns, SkipCompute: true}, &PowerBatchReq{}},
		{"PowerBatchReq/empty", PowerBatchReq{}, &PowerBatchReq{}},
		{"PowerBatchResp", PowerBatchResp{PowerPerPattern: []float64{0.25, -1e300, 0}, FeeCents: 12.5}, &PowerBatchResp{}},
		{"TimingBatchReq", TimingBatchReq{Instance: 1 << 60, Patterns: patterns}, &TimingBatchReq{}},
		{"TimingBatchResp", TimingBatchResp{DelayPerPattern: []float64{13.25}, FeeCents: 0.01}, &TimingBatchResp{}},
		{"StaticReq", StaticReq{Instance: 3, Param: "area"}, &StaticReq{}},
		{"StaticResp", StaticResp{Value: 128.5}, &StaticResp{}},
		{"FaultListReq", FaultListReq{Instance: 9}, &FaultListReq{}},
		{"FaultListResp", FaultListResp{Names: []string{"a/sa0", "b/sa1", ""}}, &FaultListResp{}},
		{"FaultTableReq", FaultTableReq{Instance: 5, Inputs: bits}, &FaultTableReq{}},
		{"FaultTableResp", FaultTableResp{Table: table}, &FaultTableResp{}},
		{"FaultTableResp/empty", FaultTableResp{}, &FaultTableResp{}},
		{"TestSetReq", TestSetReq{Instance: 2, MaxCandidates: 31, Seed: -12345}, &TestSetReq{}},
		{"TestSetResp", TestSetResp{Patterns: patterns, Coverage: 0.75, FeeCents: 3}, &TestSetResp{}},
		{"FeesReq", FeesReq{}, &FeesReq{}},
		{"FeesResp", FeesResp{TotalCents: 99.75}, &FeesResp{}},
		{"NegotiateReq", NegotiateReq{Component: "Mult", Constraints: []ModelConstraint{
			{Param: "power", MaxErrPct: 5, MaxCostCents: 0.25, ForbidRemote: true},
			{Param: "", MaxErrPct: -1, MaxCostCents: 0, ForbidRemote: false},
		}}, &NegotiateReq{}},
		{"NegotiateReq/empty", NegotiateReq{}, &NegotiateReq{}},
		{"NegotiateResp", NegotiateResp{Offers: []EstimatorOffer{
			{Name: "pw-fast", Param: "power", ErrPct: 8, CostCents: 0.1, CPUTimeMS: 2.5, Remote: true},
		}, Rejections: []string{"", "too pricey"}}, &NegotiateResp{}},
		{"CatalogueReq", CatalogueReq{}, &CatalogueReq{}},
		{"CatalogueResp", CatalogueResp{Specs: []ComponentSpec{
			{Name: "Mult", Description: "fast\x00multiplier", MinWidth: 2, MaxWidth: 64,
				PublicFactory: "mult", Testability: true, LicenseCents: 150,
				Estimators: []EstimatorOffer{{Name: "pw", Param: "power", ErrPct: 3}}},
			{Name: "Add", MinWidth: 1, MaxWidth: 8},
		}}, &CatalogueResp{}},
		{"CatalogueResp/empty", CatalogueResp{}, &CatalogueResp{}},
		{"BindReq", BindReq{Component: "Mult", Width: 16, Models: []string{"pw", "tm"}}, &BindReq{}},
		{"BindResp", BindResp{Instance: 11, LicenseCents: 150, Enabled: []EstimatorOffer{
			{Name: "pw", Param: "power", ErrPct: 3, CostCents: 0.5, CPUTimeMS: 1, Remote: true},
		}}, &BindResp{}},
	}
}

// TestBinaryPayloadRoundTrip proves every hand-written payload codec is
// the identity through the rmi payload path: EncodePayload must produce
// a binary-tagged payload, and Decode must reconstruct the envelope
// exactly.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	for _, p := range binaryPairs() {
		t.Run(p.name, func(t *testing.T) {
			if _, ok := p.in.(rmi.BinaryAppender); !ok {
				t.Fatalf("%T does not implement rmi.BinaryAppender", p.in)
			}
			if _, ok := p.out.(rmi.BinaryDecoder); !ok {
				t.Fatalf("%T does not implement rmi.BinaryDecoder", p.out)
			}
			raw, err := rmi.EncodePayload(p.in)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) == 0 || raw[0] != 0x00 {
				t.Fatalf("binary payload not tagged: % x", raw)
			}
			if err := rmi.Decode(raw, p.out); err != nil {
				t.Fatal(err)
			}
			got := reflect.ValueOf(p.out).Elem().Interface()
			if !reflect.DeepEqual(got, p.in) {
				t.Errorf("round trip mutated envelope:\n in: %#v\nout: %#v", p.in, got)
			}
		})
	}
}

// TestBinaryPayloadTruncationErrors feeds every proper prefix of every
// encoding to the decoder: each must fail cleanly — no panic, no silent
// success on a short buffer.
func TestBinaryPayloadTruncationErrors(t *testing.T) {
	for _, p := range binaryPairs() {
		raw, err := rmi.EncodePayload(p.in)
		if err != nil {
			t.Fatal(err)
		}
		body := raw[1:] // strip the payload tag; DecodeFrom sees the body
		dec := p.out.(rmi.BinaryDecoder)
		for cut := 0; cut < len(body); cut++ {
			if err := dec.DecodeFrom(body[:cut]); err == nil {
				// A proper prefix may decode only if the full encoding is
				// empty (FeesReq) — otherwise it must error.
				t.Errorf("%s: decode of %d/%d-byte prefix succeeded", p.name, cut, len(body))
			}
		}
	}
}

// TestBinaryPayloadTrailingBytesError: extra bytes after a valid
// encoding must be rejected, keeping the encoding canonical.
func TestBinaryPayloadTrailingBytesError(t *testing.T) {
	for _, p := range binaryPairs() {
		raw, err := rmi.EncodePayload(p.in)
		if err != nil {
			t.Fatal(err)
		}
		dec := p.out.(rmi.BinaryDecoder)
		if err := dec.DecodeFrom(append(append([]byte(nil), raw[1:]...), 0xEE)); err == nil {
			t.Errorf("%s: decode with a trailing byte succeeded", p.name)
		}
	}
}

// TestFaultListRespDecodeAllocations: a fault-list reply decodes into at
// most two allocations — the name slice and one copy of the names'
// bytes — however many names it carries.
func TestFaultListRespDecodeAllocations(t *testing.T) {
	for _, n := range []int{1, 10, 5000} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("g%d/sa%d", i, i%2)
		}
		body := FaultListResp{Names: names}.AppendTo(nil)
		var r FaultListResp
		allocs := testing.AllocsPerRun(20, func() {
			if err := r.DecodeFrom(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%d names: %.0f allocations per decode, want at most 2", n, allocs)
		}
		if !reflect.DeepEqual(r.Names, names) {
			t.Fatalf("%d names: decoded %d names that differ from the encoded ones", n, len(r.Names))
		}
	}
}
