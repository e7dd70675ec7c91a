package core

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/estim"
	"repro/internal/iplib"
	"repro/internal/leakcheck"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/provider"
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

// TestRemoteMultErrOnClosedSession: an eval failure other than a dead
// provider neither panics nor vanishes. The multiplier keeps it for Err
// and finishes the run on its public part.
func TestRemoteMultErrOnClosedSession(t *testing.T) {
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
	stats := module.NewSimulation(module.NewCircuit("c", ina, inb, rm, out)).Start(nil)
	if stats.Err != nil {
		t.Fatal(stats.Err)
	}
	if rm.Err() == nil {
		t.Error("remote eval on a closed session left no error")
	}
	if got := len(out.History(stats.Scheduler)); got != 1 {
		t.Errorf("%d products observed, want 1 from the public part", got)
	}
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
	timing := newRemoteEstimator(inst, timingOffer(t, inst), 4, true, iplib.MethodTimingBatch)

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

// runPowerAndTiming drives remote power and timing estimators on one
// instance, nonblocking, over a recovering session dialed through dial
// under the given network profile, and returns both sample streams.
func runPowerAndTiming(t *testing.T, prov *provider.Provider, profile netsim.Profile, dial func() (net.Conn, error)) (power, timing []float64) {
	t.Helper()
	conn, err := ConnectVia(prov, "u", profile, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Harden(DefaultResilience())
	inst, err := conn.Client.Bind("MultFastLowPower", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	pe := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 4, true)
	te := newRemoteEstimator(inst, timingOffer(t, inst), 4, true, iplib.MethodTimingBatch)

	a := module.NewWordConnector("A", 8)
	ar := module.NewWordConnector("AR", 8)
	b := module.NewWordConnector("B", 8)
	br := module.NewWordConnector("BR", 8)
	o := module.NewWordConnector("O", 16)
	ina := module.NewRandomPrimaryInput("INA", 8, 1, 40, 10, a)
	rega := module.NewRegister("REGA", 8, a, ar)
	inb := module.NewRandomPrimaryInput("INB", 8, 2, 40, 10, b)
	regb := module.NewRegister("REGB", 8, b, br)
	mult := module.NewMult("MULT", 8, ar, br, o)
	mult.AddEstimator(pe)
	mult.AddEstimator(te)
	out := module.NewPrimaryOutput("OUT", 16, o)
	simu := module.NewSimulation(module.NewCircuit("c", ina, rega, inb, regb, mult, out))
	setup := estim.NewSetup("both")
	setup.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})
	setup.Set(estim.ParamDelay, estim.Criteria{Prefer: estim.PreferAccuracy})
	if st := simu.Start(setup); st.Err != nil {
		t.Fatal(st.Err)
	}
	for _, e := range []*RemotePowerEstimator{pe, te} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e.Degraded() {
			t.Fatalf("%s degraded; a single transient fault must heal", e.Name)
		}
	}
	return pe.Report().Samples, te.Report().Samples
}

// TestFaultedTimingRunMatchesFaultFree kills the connection under
// pipelined power and timing batches at several points: the reconnect
// must replay both estimators' histories, so both sample streams stay
// bit-identical to a fault-free run. Under the WAN profile a reply
// reaches its caller a whole emulated round trip after it left the wire
// — far longer than the first retry backoff — so the other estimator's
// call can reconnect and replay in between; the replay must still
// include the batch that reply answered.
func TestFaultedTimingRunMatchesFaultFree(t *testing.T) {
	leakcheck.Check(t)
	for _, profile := range []netsim.Profile{netsim.InProcess, netsim.WAN} {
		prov := multProvider(t)
		basePower, baseTiming := runPowerAndTiming(t, prov, profile, PipeDialer(prov))
		for _, n := range []int{5, 9, 14, 20} {
			dialer, via := faultDialer([]*netsim.FaultPlan{netsim.ResetAfterWrites(n), nil})
			prov := multProvider(t)
			power, timing := runPowerAndTiming(t, prov, profile, via(prov))
			if fired := dialer.Conn(0).Fired(); len(fired) != 1 || dialer.Dials() < 2 {
				t.Fatalf("%s n=%d: fault fired %v with %d dials; the run saw no reconnect", profile.Name, n, fired, dialer.Dials())
			}
			for _, s := range []struct {
				name      string
				got, want []float64
			}{{"power", power, basePower}, {"timing", timing, baseTiming}} {
				if len(s.got) != len(s.want) {
					t.Fatalf("%s n=%d: %s samples %d, fault-free %d", profile.Name, n, s.name, len(s.got), len(s.want))
				}
				for i := range s.want {
					if s.got[i] != s.want[i] {
						t.Fatalf("%s n=%d %s %d differs: faulted %v, fault-free %v", profile.Name, n, s.name, i, s.got[i], s.want[i])
					}
				}
			}
		}
	}
}

// multProvider returns a provider offering MultFastLowPower.
func multProvider(t *testing.T) *provider.Provider {
	t.Helper()
	prov := provider.New("p")
	if err := prov.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	return prov
}

// TestFaultedBindReplaysAcrossConcurrentReconnect resets the connection
// under a second caller while a bind's reply is already back but its
// caller still sleeps the emulated round trip. That caller's reconnect
// must replay the bind, so the instance Bind returns exists on the fresh
// session.
func TestFaultedBindReplaysAcrossConcurrentReconnect(t *testing.T) {
	leakcheck.Check(t)
	prov := multProvider(t)
	// Write 1 is the handshake, 2 the bind, 3 the catalogue call.
	dialer, via := faultDialer([]*netsim.FaultPlan{netsim.ResetAfterWrites(3), nil})
	conn, err := ConnectVia(prov, "u", netsim.Profile{Name: "slow", OneWay: 20 * time.Millisecond}, via(prov))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Harden(DefaultResilience())
	// OnAttempt fires once the reply is back, before the emulated wait.
	answered := make(chan struct{})
	conn.Client.RPC.OnAttempt = func(method string, _ time.Duration, err error) {
		if method == iplib.MethodBind && err == nil {
			close(answered)
		}
	}
	catalogue := make(chan error, 1)
	go func() {
		<-answered
		_, err := conn.Client.Catalogue()
		catalogue <- err
	}()
	inst, err := conn.Client.Bind("MultFastLowPower", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-catalogue; err != nil {
		t.Fatal(err)
	}
	if dialer.Dials() < 2 {
		t.Fatalf("dials = %d; the catalogue call saw no reconnect", dialer.Dials())
	}
	if _, err := inst.Eval(make([]signal.Bit, 8)); err != nil {
		t.Fatalf("bound instance after the reconnect: %v", err)
	}
}

// TestRemoteEstimatorRejectsMiscountedReply: a batch reply whose value
// count differs from the patterns sent fails the batch — it counts in
// Close's error — instead of recording samples that shift every later
// one.
func TestRemoteEstimatorRejectsMiscountedReply(t *testing.T) {
	inst, _ := bindMult(t, 4)
	for _, c := range []struct {
		name  string
		delta int
	}{{"short", -1}, {"long", 1}} {
		t.Run(c.name, func(t *testing.T) {
			e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 2, false)
			e.dispatch = func(batch [][]signal.Bit, _ bool) ([]float64, error) {
				return make([]float64, len(batch)+c.delta), nil
			}
			for i := uint64(0); i < 6; i++ {
				if _, err := e.Estimate(evalCtx(4, i, 15-i)); err != nil {
					t.Fatal(err)
				}
			}
			err := e.Close()
			if err == nil || !strings.Contains(err.Error(), "3 remote estimation batches failed") {
				t.Fatalf("Close() = %v, want all 3 batches failed", err)
			}
			if r := e.Report(); r.Sent != 6 || len(r.Samples) != 0 {
				t.Errorf("sent %d, recorded %d samples; want 6 sent, none recorded", r.Sent, len(r.Samples))
			}
		})
	}
}

// TestCatchUpLogAfterClose reads the pattern log after Close. Session
// recovery is its only user: without it the log stays empty, and with it
// the log holds the whole stream, all of it acknowledged history. Six
// patterns go out in batches of two.
func TestCatchUpLogAfterClose(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		name    string
		recover bool // session recovery armed before the bind
		want    int
		history int
	}{
		{"none", false, 0, 0},
		{"recover", true, 6, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst, conn := bindMult(t, 4)
			if c.recover {
				conn.Harden(DefaultResilience())
				var err error
				if inst, err = conn.Client.Bind("MultFastLowPower", 4, nil); err != nil {
					t.Fatal(err)
				}
			}
			e := NewRemotePowerEstimator(inst, remoteOffer(t, inst), 2, false)
			e.dispatch = func(batch [][]signal.Bit, _ bool) ([]float64, error) {
				return make([]float64, len(batch)), nil
			}
			for i := uint64(0); i < 6; i++ {
				if _, err := e.Estimate(evalCtx(4, i, 15-i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(e.Report().Samples); n != 6 {
				t.Fatalf("recorded %d samples, want 6", n)
			}
			if got := len(e.log); got != c.want {
				t.Errorf("log holds %d patterns after Close, want %d", got, c.want)
			}
			if got := len(e.history()); got != c.history {
				t.Errorf("history holds %d patterns after Close, want %d", got, c.history)
			}
		})
	}
}

// Degraded reports whether the estimator has fallen back after its
// provider was declared dead.
func (e *RemotePowerEstimator) Degraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.degraded
}

// Degraded reports whether remote evaluation has fallen back to the
// local public part.
func (m *RemoteMult) Degraded() bool { return m.degraded.Load() }
