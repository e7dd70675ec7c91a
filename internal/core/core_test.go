package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/estim"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/signal"
)

func TestScenarioString(t *testing.T) {
	if AllLocal.String() != "AL" || EstimatorRemote.String() != "ER" || MultiplierRemote.String() != "MR" {
		t.Error("scenario abbreviations wrong")
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario string empty")
	}
}

// smallConfig keeps scenario tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 20
	cfg.BufferSize = 5
	return cfg
}

func TestScenarioAllLocal(t *testing.T) {
	res, err := Run(AllLocal, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Products == 0 {
		t.Error("AL run produced no products")
	}
	if res.Calls != 0 || res.Blocked != 0 || res.FeesCents != 0 {
		t.Errorf("AL run touched the network: %+v", res)
	}
	if res.CPUTime != res.RealTime {
		t.Error("AL cpu != real")
	}
}

func TestScenarioEstimatorRemote(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Products == 0 {
		t.Fatal("ER run produced no products")
	}
	if res.Calls == 0 || res.Bytes == 0 {
		t.Errorf("ER run made no RMI calls: %+v", res)
	}
	if res.PowerSamples != cfg.Patterns {
		t.Errorf("power samples = %d, want %d", res.PowerSamples, cfg.Patterns)
	}
	// License 50 + 0.1/pattern.
	want := 50 + 0.1*float64(cfg.Patterns)
	if res.FeesCents < want-0.01 || res.FeesCents > want+0.01 {
		t.Errorf("fees = %v, want %v", res.FeesCents, want)
	}
}

func TestScenarioMultiplierRemote(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(MultiplierRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Products == 0 {
		t.Fatal("MR run produced no products")
	}
	// MR performs at least one eval call per pattern on top of the
	// estimation batches.
	er, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls <= er.Calls {
		t.Errorf("MR calls (%d) not above ER calls (%d)", res.Calls, er.Calls)
	}
}

func TestScenarioMRProductsCorrect(t *testing.T) {
	// The remotely computed products must equal local multiplication:
	// run MR and AL with the same seed and compare output histories.
	// (The PO history is read through a fresh design each time, so we
	// instead verify MR against locally recomputed expectation by
	// rebuilding the generator sequence.)
	cfg := smallConfig()
	cfg.Patterns = 5

	buildAndRun := func(s Scenario) []uint64 {
		a := module.NewWordConnector("A", cfg.Width)
		ar := module.NewWordConnector("AR", cfg.Width)
		b := module.NewWordConnector("B", cfg.Width)
		br := module.NewWordConnector("BR", cfg.Width)
		o := module.NewWordConnector("O", 2*cfg.Width)
		ina := module.NewRandomPrimaryInput("INA", cfg.Width, cfg.Seed, cfg.Patterns, 10, a)
		rega := module.NewRegister("REGA", cfg.Width, a, ar)
		inb := module.NewRandomPrimaryInput("INB", cfg.Width, cfg.Seed+1, cfg.Patterns, 10, b)
		regb := module.NewRegister("REGB", cfg.Width, b, br)
		out := module.NewPrimaryOutput("OUT", 2*cfg.Width, o)
		var mult module.Module
		if s == AllLocal {
			mult = module.NewMult("MULT", cfg.Width, ar, br, o)
		} else {
			prov := provider.New("p")
			if err := prov.Register(provider.MultFastLowPower()); err != nil {
				t.Fatal(err)
			}
			conn, err := ConnectInProcess(prov, "u", netsim.InProcess)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			inst, err := conn.Client.Bind("MultFastLowPower", cfg.Width, nil)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := NewRemoteMult("MULT", cfg.Width, ar, br, o, inst)
			if err != nil {
				t.Fatal(err)
			}
			rm.FullyRemote = true
			mult = rm
		}
		c := module.NewCircuit("x", ina, rega, inb, regb, mult, out)
		simu := module.NewSimulation(c)
		st := simu.Start(nil)
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		var vals []uint64
		for _, obs := range out.History(st.Scheduler) {
			if wv, ok := obs.Value.(signal.WordValue); ok {
				if v, known := wv.W.Uint64(); known {
					vals = append(vals, v)
				}
			}
		}
		return vals
	}
	local := buildAndRun(AllLocal)
	remote := buildAndRun(MultiplierRemote)
	if len(local) == 0 {
		t.Fatal("no local products")
	}
	// The final settled product per pattern must agree; compare the
	// last len(min) entries (MR may emit transient values on the first
	// operand event of a pattern, AL's behavioral mult likewise).
	if local[len(local)-1] != remote[len(remote)-1] {
		t.Errorf("final products differ: local %d, remote %d", local[len(local)-1], remote[len(remote)-1])
	}
}

func TestRemoteWidthMismatchRejected(t *testing.T) {
	prov := provider.New("p")
	if err := prov.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	conn, err := ConnectInProcess(prov, "u", netsim.InProcess)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inst, err := conn.Client.Bind("MultFastLowPower", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRemoteMult("M", 16, nil, nil, nil, inst); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestBufferSizeReducesCalls(t *testing.T) {
	// The Figure 3 mechanism: a larger pattern buffer must mean fewer
	// RMI calls for the same pattern count.
	cfg := smallConfig()
	cfg.SkipCompute = true
	cfg.Nonblocking = false
	cfg.BufferSize = 1
	small, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BufferSize = cfg.Patterns
	big, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.Calls >= small.Calls {
		t.Errorf("buffering did not reduce calls: %d -> %d", small.Calls, big.Calls)
	}
}

func TestBufferedDelayAmortization(t *testing.T) {
	// With an emulated WAN, buffer=1 must spend measurably more blocked
	// time than buffer=patterns.
	cfg := smallConfig()
	cfg.Patterns = 10
	cfg.SkipCompute = true
	cfg.Nonblocking = false
	cfg.Profile = netsim.Profile{Name: "test-wan", OneWay: 2 * time.Millisecond}
	cfg.BufferSize = 1
	slow, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BufferSize = cfg.Patterns
	fast, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Blocked >= slow.Blocked {
		t.Errorf("buffering did not amortize delay: blocked %v -> %v", slow.Blocked, fast.Blocked)
	}
	if fast.RealTime >= slow.RealTime {
		t.Errorf("buffering did not reduce real time: %v -> %v", slow.RealTime, fast.RealTime)
	}
}

func TestNonblockingHidesLatency(t *testing.T) {
	// The paper: "nonblocking simulation contributes to hiding the
	// latency that long runs of the accurate gate-level simulator would
	// cause". The observable is the event-processing phase: blocking
	// estimation stalls the simulation for every batch round trip, while
	// nonblocking defers the waits to the end-of-run drain.
	cfg := smallConfig()
	cfg.Patterns = 20
	cfg.BufferSize = 2
	cfg.SkipCompute = true
	cfg.Profile = netsim.Profile{Name: "test-slow", OneWay: 3 * time.Millisecond}
	cfg.Nonblocking = false
	blocking, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nonblocking = true
	nonblocking, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 batches × 6ms round trip ≈ 60ms of stall in the blocking
	// simulation phase; the nonblocking phase should be far below that.
	if nonblocking.SimTime*2 >= blocking.SimTime {
		t.Errorf("nonblocking sim phase %v not well below blocking %v",
			nonblocking.SimTime, blocking.SimTime)
	}
	if nonblocking.DrainTime == 0 {
		t.Error("nonblocking run recorded no drain phase")
	}
}

// TestBackpressureCountsAsBlocked: once the ordered dispatcher's queue
// is full, each further batch stalls the simulation thread until a slot
// frees, which is a wait on the network. CPUTime must leave that wait
// out. Forty single-pattern batches over a 2 ms round trip overfill the
// 16-deep queue, so the event-processing phase lasts tens of
// milliseconds while its computation takes a few.
func TestBackpressureCountsAsBlocked(t *testing.T) {
	cfg := smallConfig()
	cfg.Patterns = 40
	cfg.BufferSize = 1
	cfg.SkipCompute = true
	cfg.Profile = netsim.Profile{Name: "test-1ms", OneWay: time.Millisecond}
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime < 20*time.Millisecond {
		t.Fatalf("sim phase %v: the queue never filled, test premise broken", res.SimTime)
	}
	if res.CPUTime*2 >= res.SimTime {
		t.Errorf("CPU time %v within a factor 2 of the %v sim phase: the waits on the full queue counted as CPU",
			res.CPUTime, res.SimTime)
	}
}

// scenarioSamples runs one ER scenario and returns its power samples.
func scenarioSamples(t *testing.T, cfg Config) (*Result, []float64) {
	t.Helper()
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power == nil || len(res.Power.Samples) == 0 {
		t.Fatal("scenario produced no power samples")
	}
	return res, res.Power.Samples
}

// TestScenarioDeterministicAcrossDepths is the pipelining half of the
// determinism contract: the ER scenario's power values and product count
// must be bit-identical whether the transport runs stop-and-wait
// (depth 1) or deeply pipelined.
func TestScenarioDeterministicAcrossDepths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 20
	cfg.InFlight = 1
	ref, refSamples := scenarioSamples(t, cfg)
	for _, depth := range []int{8, 32} {
		cfg.InFlight = depth
		res, samples := scenarioSamples(t, cfg)
		if !reflect.DeepEqual(refSamples, samples) {
			t.Errorf("depth %d: samples diverged from depth 1", depth)
		}
		if res.Products != ref.Products {
			t.Errorf("depth %d: products = %d, want %d", depth, res.Products, ref.Products)
		}
	}
}

func TestRemotePowerMatchesLocalPPP(t *testing.T) {
	// The remote estimator's values must equal a local PPP run over the
	// same pattern sequence — IP protection changes WHERE the estimate
	// runs, never its value.
	cfg := smallConfig()
	cfg.Patterns = 15
	cfg.BufferSize = 4
	cfg.Nonblocking = false
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerSamples != cfg.Patterns {
		t.Fatalf("samples = %d", res.PowerSamples)
	}
}

func TestVirtualFaultSimOverRPC(t *testing.T) {
	// Figure 4 over the wire: the IP1 testability service is served by a
	// provider process; the virtual fault simulation result must be
	// identical to the local-service run.
	prov := provider.New("p")
	if err := prov.Register(provider.HalfAdderIP1()); err != nil {
		t.Fatal(err)
	}
	conn, err := ConnectInProcess(prov, "u", netsim.InProcess)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inst, err := conn.Client.Bind("IP1-HalfAdder", 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	runWith := func(svc fault.TestabilityService) *fault.Result {
		d, err := fault.Figure4Design()
		if err != nil {
			t.Fatal(err)
		}
		d.Hosts[0].Service = svc
		vs := d.NewVirtual()
		var patterns [][]signal.Bit
		for v := uint64(0); v < 16; v++ {
			p := make([]signal.Bit, 4)
			for i := 0; i < 4; i++ {
				if v&(1<<uint(i)) != 0 {
					p[i] = signal.B1
				}
			}
			patterns = append(patterns, p)
		}
		res, err := vs.Run(patterns)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	local, err := fault.NewLocalTestability(gate.HalfAdderIP(), fault.NetNames, true)
	if err != nil {
		t.Fatal(err)
	}
	lres := runWith(local)
	rres := runWith(inst)
	if len(lres.Detected) != len(rres.Detected) {
		t.Fatalf("local detected %d, remote %d", len(lres.Detected), len(rres.Detected))
	}
	for f, pi := range lres.Detected {
		if rres.Detected[f] != pi {
			t.Errorf("fault %s: local pattern %d, remote %d", f, pi, rres.Detected[f])
		}
	}
	fees, err := conn.Client.Fees()
	if err != nil {
		t.Fatal(err)
	}
	if fees <= 5 { // license alone is 5
		t.Errorf("no detection-table fees charged: %v", fees)
	}
}

func TestRemoteEstimatorCloseAfterUse(t *testing.T) {
	prov := provider.New("p")
	if err := prov.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	conn, err := ConnectInProcess(prov, "u", netsim.InProcess)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inst, err := conn.Client.Bind("MultFastLowPower", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	offer, _ := inst.Enabled()[2], true
	e := NewRemotePowerEstimator(inst, offer, 2, true)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ec := &estim.EvalContext{Inputs: []signal.Value{
		signal.WordValue{W: signal.WordFromUint64(1, 4)},
		signal.WordValue{W: signal.WordFromUint64(2, 4)},
	}}
	if _, err := e.Estimate(ec); err == nil {
		t.Error("estimate after Close accepted")
	}
}
