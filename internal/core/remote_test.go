package core

import (
	"strings"
	"testing"

	"repro/internal/estim"
	"repro/internal/iplib"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/signal"
)

// bindMult spins up a provider and binds a multiplier instance.
func bindMult(t *testing.T, width int) (*iplib.BoundInstance, *Connection) {
	t.Helper()
	prov := provider.New("p")
	if err := prov.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	conn, err := ConnectInProcess(prov, "u", netsim.InProcess)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	inst, err := conn.Client.Bind("MultFastLowPower", width, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst, conn
}

func remoteOffer(t *testing.T, inst *iplib.BoundInstance) iplib.EstimatorOffer {
	t.Helper()
	for _, e := range inst.Enabled() {
		if e.Remote && e.Parameter() == estim.ParamAvgPower {
			return e
		}
	}
	t.Fatal("no remote power offer")
	return iplib.EstimatorOffer{}
}

func evalCtx(width int, a, b uint64) *estim.EvalContext {
	return &estim.EvalContext{
		Module: "MULT",
		Inputs: []signal.Value{
			signal.WordValue{W: signal.WordFromUint64(a, width)},
			signal.WordValue{W: signal.WordFromUint64(b, width)},
		},
	}
}

func TestRemoteEstimatorPartialBufferFlushedOnClose(t *testing.T) {
	inst, _ := bindMult(t, 4)
	e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 10, false)
	// 3 patterns, buffer 10: nothing flushes during estimation.
	for i := uint64(0); i < 3; i++ {
		if _, err := e.Estimate(evalCtx(4, i, 15-i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Report().Samples) != 0 {
		t.Fatal("premature flush")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Report().Samples); got != 3 {
		t.Errorf("samples after close = %d, want 3", got)
	}
}

func TestRemoteEstimatorNilInputDeferred(t *testing.T) {
	inst, _ := bindMult(t, 4)
	e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 2, false)
	v, err := e.Estimate(&estim.EvalContext{Inputs: []signal.Value{nil, nil}})
	if err != nil || !v.IsNull() {
		t.Errorf("undriven inputs: %v, %v", v, err)
	}
	if e.Report().Sent != 0 {
		t.Error("undriven inputs were buffered")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteEstimatorErrorSurfacesAtClose(t *testing.T) {
	inst, conn := bindMult(t, 4)
	e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 1, false)
	// Kill the session so the flush fails.
	conn.Close()
	if _, err := e.Estimate(evalCtx(4, 1, 2)); err != nil {
		t.Logf("estimate already failed synchronously: %v", err)
	}
	err := e.Close()
	if err == nil {
		t.Fatal("Close hid the transport failure")
	}
	if !strings.Contains(err.Error(), "batches failed") {
		t.Errorf("error text: %v", err)
	}
}

func TestRemoteEstimatorBufferSizeFloor(t *testing.T) {
	inst, _ := bindMult(t, 4)
	e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 0, false)
	if e.BufferSize != 1 {
		t.Errorf("buffer floor = %d, want 1", e.BufferSize)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteEstimatorMetadataFromOffer(t *testing.T) {
	inst, _ := bindMult(t, 4)
	offer := remoteOffer(t, inst)
	e := NewRemotePowerEstimator(inst, offer, 5, true)
	if e.EstimatorName() != offer.Name || !e.Remote() {
		t.Error("metadata not propagated")
	}
	if e.Parameter() != estim.ParamAvgPower {
		t.Errorf("parameter = %v", e.Parameter())
	}
	if e.CostPerCall() != offer.CostCents {
		t.Error("cost not propagated")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMultPanicsOnDeadSession(t *testing.T) {
	inst, conn := bindMult(t, 4)
	a := module.NewWordConnector("a", 4)
	b := module.NewWordConnector("b", 4)
	o := module.NewWordConnector("o", 8)
	rm, err := NewRemoteMult("M", 4, a, b, o, inst)
	if err != nil {
		t.Fatal(err)
	}
	rm.FullyRemote = true
	conn.Close()
	ina := module.NewPatternInput("ina", 4, []signal.Value{
		signal.WordValue{W: signal.WordFromUint64(3, 4)}}, 1, a)
	inb := module.NewPatternInput("inb", 4, []signal.Value{
		signal.WordValue{W: signal.WordFromUint64(5, 4)}}, 1, b)
	out := module.NewPrimaryOutput("out", 8, o)
	simu := module.NewSimulation(module.NewCircuit("c", ina, inb, rm, out))
	defer func() {
		if recover() == nil {
			t.Error("remote eval on dead session did not panic")
		}
	}()
	simu.Start(nil)
}

func timingOffer(t *testing.T, inst *iplib.BoundInstance) iplib.EstimatorOffer {
	t.Helper()
	for _, e := range inst.Enabled() {
		if e.Remote && e.Parameter() == estim.ParamDelay {
			return e
		}
	}
	t.Fatal("no remote timing offer")
	return iplib.EstimatorOffer{}
}

func TestRemoteTimingEstimatorEndToEnd(t *testing.T) {
	// Both remote estimators — accurate power AND accurate timing — run
	// in one simulation under one setup: the Figure 1 configuration
	// ("Power model 2, Timing model 2") served from one session.
	inst, conn := bindMult(t, 8)
	power := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 4, true)
	timing := NewRemoteTimingEstimator(inst, timingOffer(t, inst), 4, true)

	a := module.NewWordConnector("A", 8)
	ar := module.NewWordConnector("AR", 8)
	b := module.NewWordConnector("B", 8)
	br := module.NewWordConnector("BR", 8)
	o := module.NewWordConnector("O", 16)
	ina := module.NewRandomPrimaryInput("INA", 8, 1, 12, 10, a)
	rega := module.NewRegister("REGA", 8, a, ar)
	inb := module.NewRandomPrimaryInput("INB", 8, 2, 12, 10, b)
	regb := module.NewRegister("REGB", 8, b, br)
	mult := module.NewMult("MULT", 8, ar, br, o)
	mult.AddEstimator(power)
	mult.AddEstimator(timing)
	out := module.NewPrimaryOutput("OUT", 16, o)
	simu := module.NewSimulation(module.NewCircuit("c", ina, rega, inb, regb, mult, out))
	setup := estim.NewSetup("both")
	setup.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})
	setup.Set(estim.ParamDelay, estim.Criteria{Prefer: estim.PreferAccuracy})
	if st := simu.Start(setup); st.Err != nil {
		t.Fatal(st.Err)
	}
	if err := power.Close(); err != nil {
		t.Fatal(err)
	}
	if err := timing.Close(); err != nil {
		t.Fatal(err)
	}
	prep, trep := power.Report(), timing.Report()
	if len(prep.Samples) != 12 || len(trep.Samples) != 12 {
		t.Fatalf("samples: power %d, timing %d; want 12 each", len(prep.Samples), len(trep.Samples))
	}
	// Delays must be nonnegative and bounded by the static critical path.
	static, err := inst.Static("delay")
	if err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, d := range trep.Samples {
		if d < 0 || d > static {
			t.Fatalf("delay %v outside [0, %v]", d, static)
		}
		if d > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("no switching delay observed over random patterns")
	}
	fees, err := conn.Client.Fees()
	if err != nil {
		t.Fatal(err)
	}
	// license 50 + power 12*0.1 + timing 12*0.05 = 51.8
	if fees < 51.79 || fees > 51.81 {
		t.Errorf("fees = %v, want 51.8", fees)
	}
}

// TestCacheBytesSavedIsBinaryPayloadLength pins the bytes a cache hit
// reports as saved to the length of the request payload the wire
// would have carried: one tag byte plus the envelope's AppendTo
// encoding.
func TestCacheBytesSavedIsBinaryPayloadLength(t *testing.T) {
	inst, _ := bindMult(t, 4)
	for _, c := range []struct {
		name  string
		build func() *RemotePowerEstimator
		req   func(batch [][]signal.Bit) any
	}{
		{"power", func() *RemotePowerEstimator {
			return NewRemotePowerEstimator(inst, remoteOffer(t, inst), 2, false)
		}, func(batch [][]signal.Bit) any {
			return iplib.PowerBatchReq{Instance: inst.ID(), Patterns: batch}
		}},
		{"timing", func() *RemotePowerEstimator {
			return NewRemoteTimingEstimator(inst, timingOffer(t, inst), 2, false)
		}, func(batch [][]signal.Bit) any {
			return iplib.TimingBatchReq{Instance: inst.ID(), Patterns: batch}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := NewEstimationCache()
			run := func() PowerReport {
				e := c.build()
				e.EnableCache(store)
				for i := uint64(0); i < 6; i++ {
					if _, err := e.Estimate(evalCtx(4, i, 15-i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				return e.Report()
			}
			if cold := run(); cold.CacheHits != 0 || cold.CacheBytesSaved != 0 {
				t.Fatalf("cold run: %d hits, %d bytes saved", cold.CacheHits, cold.CacheBytesSaved)
			}
			warm := run()
			want := 0
			for i := uint64(0); i < 6; i += 2 {
				batch := [][]signal.Bit{
					wordsToBits(nil, signal.WordFromUint64(i, 4), signal.WordFromUint64(15-i, 4)),
					wordsToBits(nil, signal.WordFromUint64(i+1, 4), signal.WordFromUint64(14-i, 4)),
				}
				payload, err := rmi.EncodePayload(c.req(batch))
				if err != nil {
					t.Fatal(err)
				}
				want += len(payload)
			}
			if warm.CacheHits != 3 || warm.CacheBytesSaved != int64(want) {
				t.Errorf("warm run: %d hits saving %d bytes, want 3 hits saving %d", warm.CacheHits, warm.CacheBytesSaved, want)
			}
		})
	}
}
