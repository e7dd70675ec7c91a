package provider

import (
	"net"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// rawArgs is a request envelope whose wire form is exactly its bytes, so
// a fuzzed payload crosses a real client into server dispatch unchanged.
type rawArgs []byte

func (r rawArgs) PortData() []any          { return nil }
func (r rawArgs) AppendTo(b []byte) []byte { return append(b, r...) }

// rawReply accepts any response payload.
type rawReply struct{}

func (*rawReply) DecodeFrom([]byte) error { return nil }

// dispatchMethods is every method New registers.
var dispatchMethods = []string{
	iplib.MethodCatalogue, iplib.MethodBind, iplib.MethodEval, iplib.MethodPowerBatch,
	iplib.MethodStatic, iplib.MethodFaultList, iplib.MethodFaultTable, iplib.MethodFees,
	iplib.MethodTestSet, iplib.MethodTimingBatch,
}

// FuzzProviderDispatch sends fuzzed payload bytes to every method the
// provider registers, through real rmi.Server dispatch. Each input gets
// a fresh session over net.Pipe with a 4-bit multiplier (instance 1)
// and a half adder (instance 2) already bound, so every rmi.Decode site
// in provider.go sees the bytes with live instance state behind the
// handles they name. The multiplier is narrow because test-set
// generation, the slowest handler, takes about 0.3 s at 8 bits and 6 s
// at 16. A handler may refuse any input with a remote error. It must
// not panic (the server reports a recovered panic as a remote error
// naming it, which fails the target), and the session must still answer
// a fees query afterwards.
func FuzzProviderDispatch(f *testing.F) {
	p := New("fuzz-provider")
	for _, c := range []*Component{MultFastLowPower(), HalfAdderIP1()} {
		if err := p.Register(c); err != nil {
			f.Fatal(err)
		}
	}
	key, err := security.NewKey()
	if err != nil {
		f.Fatal(err)
	}
	p.Authorize("fuzzer", key)

	// Seeds: one well-formed request per decoding method, aimed at the
	// bound instances.
	nl := gate.ArrayMultiplier(4)
	in := nl.InputWord(3 | 5<<4)
	pats := [][]signal.Bit{in, nl.InputWord(15 | 9<<4)}
	for _, req := range []rmi.BinaryAppender{
		iplib.BindReq{Component: "MultFastLowPower", Width: 4, Models: []string{"constant"}},
		iplib.EvalReq{Instance: 1, Inputs: in},
		iplib.PowerBatchReq{Instance: 1, Patterns: pats},
		iplib.PowerBatchReq{Instance: 1, Patterns: pats, SkipCompute: true},
		iplib.TimingBatchReq{Instance: 1, Patterns: pats},
		iplib.StaticReq{Instance: 1, Param: "area"},
		iplib.StaticReq{Instance: 1, Param: "delay"},
		iplib.FaultListReq{Instance: 2},
		iplib.FaultTableReq{Instance: 1, Inputs: in},
		iplib.TestSetReq{Instance: 2, MaxCandidates: 20, Seed: 1},
	} {
		f.Add(req.AppendTo(nil))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		cliConn, srvConn := net.Pipe()
		served := make(chan struct{})
		go func() {
			p.Server.ServeConn(srvConn)
			close(served)
		}()
		defer func() { <-served }()
		rpc, err := rmi.NewClient(cliConn, "fuzzer", key)
		if err != nil {
			t.Fatal(err)
		}
		defer rpc.Close()
		ipc := iplib.NewIPClient(rpc)
		if _, err := ipc.Bind("MultFastLowPower", 4, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ipc.Bind("IP1-HalfAdder", 1, nil); err != nil {
			t.Fatal(err)
		}
		for _, method := range dispatchMethods {
			err := rpc.Call(method, rawArgs(payload), &rawReply{})
			if err != nil && strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s: %v", method, err)
			}
		}
		if _, err := ipc.Fees(); err != nil {
			t.Fatalf("session broken after fuzzed calls: %v", err)
		}
	})
}
