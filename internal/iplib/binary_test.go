package iplib

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/rmi"
	"repro/internal/signal"
	"repro/internal/wire"
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

// TestBinaryPairsCoverEveryEnvelope keeps binaryPairs() the whole
// codec surface, so the round-trip, truncation, trailing-byte and
// hostile-count tests see every envelope and every field. Each type
// with an AppendTo or a DecodeFrom in iplib or fault must declare both
// and be reached from a case; each exported field of every reached
// struct must be non-zero in at least one case, or a decoder that drops
// or swaps it would round-trip the zero value unnoticed.
func TestBinaryPairsCoverEveryEnvelope(t *testing.T) {
	codec := map[string]map[string]bool{} // "iplib.EvalReq" -> method names
	for _, dir := range []string{".", filepath.Join("..", "fault")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "AppendTo" && fn.Name.Name != "DecodeFrom" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				key := f.Name.Name + "." + recv.(*ast.Ident).Name
				if codec[key] == nil {
					codec[key] = map[string]bool{}
				}
				codec[key][fn.Name.Name] = true
			}
		}
	}
	if len(codec) < 20 {
		t.Fatalf("suspiciously few codec types parsed: %d", len(codec))
	}

	typeKey := func(t reflect.Type) string { return path.Base(t.PkgPath()) + "." + t.Name() }
	ours := func(t reflect.Type) bool {
		return t.PkgPath() == "repro/internal/iplib" || t.PkgPath() == "repro/internal/fault"
	}
	reached := map[string]bool{}
	nonZero := map[string]bool{} // "iplib.EstimatorOffer.CPUTimeMS" -> set in some case
	var reach func(reflect.Type)
	reach = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			reach(t.Elem())
			return
		}
		if !ours(t) || reached[typeKey(t)] {
			return
		}
		reached[typeKey(t)] = true
		if t.Kind() == reflect.Struct {
			for i := 0; i < t.NumField(); i++ {
				if t.Field(i).IsExported() {
					nonZero[typeKey(t)+"."+t.Field(i).Name] = false
				}
				reach(t.Field(i).Type)
			}
		}
	}
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			if !ours(v.Type()) {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() && !v.Field(i).IsZero() {
					nonZero[typeKey(v.Type())+"."+f.Name] = true
					walk(v.Field(i))
				}
			}
		}
	}
	for _, p := range binaryPairs() {
		reach(reflect.TypeOf(p.in))
		walk(reflect.ValueOf(p.in))
	}

	for key, methods := range codec {
		if !methods["AppendTo"] || !methods["DecodeFrom"] {
			t.Errorf("%s declares only %v: a one-sided codec", key, methods)
		}
		if !reached[key] {
			t.Errorf("%s has a codec but no binaryPairs() case reaches it", key)
		}
	}
	for key, set := range nonZero {
		if !set {
			t.Errorf("%s is zero in every binaryPairs() case", key)
		}
	}
}

// TestBinaryPayloadHostileCounts splices a claimed count of 1<<20 into
// every offset of every encoding, once inserted and once overwriting a
// byte. Every count a decoder reads comes from an untrusted peer, so it
// must be bounded by the bytes behind it: no decode may panic or
// allocate a MiB for the claim. A larger claim would turn a missing
// bound into a fatal out-of-memory error instead of a test failure.
func TestBinaryPayloadHostileCounts(t *testing.T) {
	claim := wire.AppendUvarint(nil, 1<<20)
	var before, after runtime.MemStats
	for _, p := range binaryPairs() {
		raw, err := rmi.EncodePayload(p.in)
		if err != nil {
			t.Fatal(err)
		}
		body := raw[1:]
		dec := p.out.(rmi.BinaryDecoder)
		for off := 0; off <= len(body); off++ {
			spliced := [][]byte{slices.Concat(body[:off], claim, body[off:])}
			if off < len(body) {
				spliced = append(spliced, slices.Concat(body[:off], claim, body[off+1:]))
			}
			for _, buf := range spliced {
				runtime.ReadMemStats(&before)
				_ = dec.DecodeFrom(buf)
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
					t.Errorf("%s: a count spliced at byte %d of % x allocated %d bytes", p.name, off, body, n)
				}
			}
		}
	}
}

// TestBinaryPayloadAppendAllocs: encoding an envelope into a buffer with
// room to spare allocates nothing. It measures the encoder with every
// callee included, which the noalloc lint cannot: that sees only
// allocations inside the annotated body itself.
func TestBinaryPayloadAppendAllocs(t *testing.T) {
	buf := make([]byte, 0, 64<<10)
	for _, p := range binaryPairs() {
		a := p.in.(rmi.BinaryAppender)
		if allocs := testing.AllocsPerRun(20, func() { buf = a.AppendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per AppendTo into a buffer with spare room, want 0", p.name, allocs)
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
