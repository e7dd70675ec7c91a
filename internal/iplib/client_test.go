package iplib

import (
	"net"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// fakeProvider implements just enough of the wire protocol to exercise
// every client stub, without importing internal/provider (which would be
// an import cycle).
func fakeProvider(t *testing.T) *IPClient {
	t.Helper()
	srv := rmi.NewServer("fake")
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srv.Authorize("u", key)

	srv.Handle(MethodCatalogue, func(s *rmi.Session, p []byte) (any, error) {
		return CatalogueResp{Specs: []ComponentSpec{{
			Name: "Thing", MinWidth: 1, MaxWidth: 8, PublicFactory: "behavioral-mult",
		}}}, nil
	})
	srv.Handle(MethodBind, func(s *rmi.Session, p []byte) (any, error) {
		var req BindReq
		if err := rmi.Decode(p, &req); err != nil {
			return nil, err
		}
		return BindResp{Instance: 7, LicenseCents: 3,
			Enabled: []EstimatorOffer{{Name: "e", Param: "power.avg", Remote: true}}}, nil
	})
	srv.Handle(MethodEval, func(s *rmi.Session, p []byte) (any, error) {
		var req EvalReq
		if err := rmi.Decode(p, &req); err != nil {
			return nil, err
		}
		out := make([]signal.Bit, len(req.Inputs))
		for i, b := range req.Inputs {
			out[i] = b.Not()
		}
		return EvalResp{Outputs: out}, nil
	})
	srv.Handle(MethodPowerBatch, func(s *rmi.Session, p []byte) (any, error) {
		var req PowerBatchReq
		if err := rmi.Decode(p, &req); err != nil {
			return nil, err
		}
		if req.SkipCompute {
			return PowerBatchResp{FeeCents: 1}, nil
		}
		vals := make([]float64, len(req.Patterns))
		for i := range vals {
			vals[i] = float64(i)
		}
		return PowerBatchResp{PowerPerPattern: vals, FeeCents: 1}, nil
	})
	srv.Handle(MethodStatic, func(s *rmi.Session, p []byte) (any, error) {
		return StaticResp{Value: 123}, nil
	})
	srv.Handle(MethodFaultList, func(s *rmi.Session, p []byte) (any, error) {
		return FaultListResp{Names: []string{"f0sa0"}}, nil
	})
	srv.Handle(MethodFaultTable, func(s *rmi.Session, p []byte) (any, error) {
		return FaultTableResp{Table: fault.DetectionTable{
			Input:     signal.WordFromUint64(1, 2),
			FaultFree: signal.WordFromUint64(0, 1),
			Rows: []fault.DetectionRow{
				{Output: signal.WordFromUint64(1, 1), Faults: []string{"f0sa0"}},
			},
		}}, nil
	})
	srv.Handle(MethodTestSet, func(s *rmi.Session, p []byte) (any, error) {
		return TestSetResp{
			Patterns: [][]signal.Bit{{signal.B1, signal.B0}},
			Coverage: 0.5, FeeCents: 2,
		}, nil
	})
	srv.Handle(MethodFees, func(s *rmi.Session, p []byte) (any, error) {
		return FeesResp{TotalCents: s.Fees()}, nil
	})

	a, b := net.Pipe()
	go srv.ServeConn(a)
	rpc, err := rmi.NewClient(b, "u", key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	return NewIPClient(rpc)
}

func TestClientCatalogueStub(t *testing.T) {
	c := fakeProvider(t)
	specs, err := c.Catalogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "Thing" {
		t.Errorf("catalogue = %+v", specs)
	}
}

func TestClientBindAndAccessors(t *testing.T) {
	c := fakeProvider(t)
	b, err := c.Bind("Thing", 4, []string{"e"})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() != 7 || b.Width() != 4 || b.Component() != "Thing" {
		t.Errorf("bound = %v", b)
	}
	if len(b.Enabled()) != 1 || !b.Enabled()[0].Remote {
		t.Errorf("enabled = %v", b.Enabled())
	}
	if b.String() == "" {
		t.Error("String empty")
	}
	if b.Meter() != nil {
		t.Error("unmetered client returned a meter")
	}
}

func TestClientEvalStub(t *testing.T) {
	c := fakeProvider(t)
	b, _ := c.Bind("Thing", 4, nil)
	out, err := b.Eval([]signal.Bit{signal.B1, signal.B0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != signal.B0 || out[1] != signal.B1 {
		t.Errorf("eval = %v", out)
	}
}

func TestClientPowerBatchStub(t *testing.T) {
	c := fakeProvider(t)
	b, _ := c.Bind("Thing", 4, nil)
	vals, err := b.PowerBatch([][]signal.Bit{{signal.B0}, {signal.B1}}, false)
	if err != nil || len(vals) != 2 {
		t.Fatalf("power = %v, %v", vals, err)
	}
	ack, err := b.PowerBatch(nil, true)
	if err != nil || len(ack) != 0 {
		t.Fatalf("skip-compute = %v, %v", ack, err)
	}
	vals, err = b.EstimateBatch(MethodPowerBatch, [][]signal.Bit{{signal.B1}}, false, true, nil)
	if err != nil || len(vals) != 1 {
		t.Fatalf("nonblocking = %v, %v", vals, err)
	}
}

func TestClientStaticStub(t *testing.T) {
	c := fakeProvider(t)
	b, _ := c.Bind("Thing", 4, nil)
	v, err := b.Static("area")
	if err != nil || v != 123 {
		t.Fatalf("static = %v, %v", v, err)
	}
}

func TestClientTestabilityStubs(t *testing.T) {
	c := fakeProvider(t)
	b, _ := c.Bind("Thing", 4, nil)
	names, err := b.FaultList()
	if err != nil || len(names) != 1 {
		t.Fatalf("fault list = %v, %v", names, err)
	}
	dt, err := b.DetectionTable([]signal.Bit{signal.B0, signal.B1})
	if err != nil || len(dt.Rows) != 1 {
		t.Fatalf("table = %v, %v", dt, err)
	}
	if !slices.Contains(dt.Rows[0].Faults, "f0sa0") {
		t.Error("table content lost in transit")
	}
}

func TestClientTestSetStub(t *testing.T) {
	c := fakeProvider(t)
	b, _ := c.Bind("Thing", 4, nil)
	ts, err := b.TestSet(100, 1)
	if err != nil || len(ts.Patterns) != 1 || ts.Coverage != 0.5 {
		t.Fatalf("test set = %+v, %v", ts, err)
	}
}

func TestClientFeesStub(t *testing.T) {
	c := fakeProvider(t)
	fees, err := c.Fees()
	if err != nil || fees != 0 {
		t.Fatalf("fees = %v, %v", fees, err)
	}
}

// ID returns the provider-side instance handle.
func (b *BoundInstance) ID() uint64 { return b.id }
