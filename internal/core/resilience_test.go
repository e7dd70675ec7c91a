package core

import (
	"net"
	"testing"

	"repro/internal/estim"
	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/provider"
)

// resilientCfg returns a small, deterministic scenario configuration:
// blocking estimation keeps the batch order (and thus the provider's
// stateful power simulation) identical across runs.
func resilientCfg() Config {
	cfg := DefaultConfig()
	cfg.Patterns = 40
	cfg.Nonblocking = false
	return cfg
}

// faultDialer interposes a FaultyDialer over the in-process pipe and
// exposes it for post-run assertions.
func faultDialer(plans []*netsim.FaultPlan) (*netsim.FaultyDialer, func(p *provider.Provider) func() (net.Conn, error)) {
	d := &netsim.FaultyDialer{Plans: plans}
	return d, func(p *provider.Provider) func() (net.Conn, error) {
		d.Base = PipeDialer(p)
		return d.Dial
	}
}

// TestFaultedRunMatchesFaultFree is the acceptance test of the resilience
// layer: the provider connection is killed mid-simulation at a scripted
// operation count, and the run must complete through retry + reconnect +
// session replay with results identical to the fault-free run.
func TestFaultedRunMatchesFaultFree(t *testing.T) {
	leakcheck.Check(t)
	for _, s := range []Scenario{EstimatorRemote, MultiplierRemote} {
		t.Run(s.String(), func(t *testing.T) {
			base, err := Run(s, resilientCfg())
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if base.PowerSamples == 0 {
				t.Fatal("fault-free run produced no power samples; test premise broken")
			}

			cfg := resilientCfg()
			r := DefaultResilience()
			cfg.Resilience = &r
			// Kill the first connection partway into the measured window;
			// the second connection is clean.
			dialer, via := faultDialer([]*netsim.FaultPlan{netsim.ResetAfterWrites(9), nil})
			cfg.DialVia = via
			faulted, err := Run(s, cfg)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}

			if fired := dialer.Conn(0).Fired(); len(fired) != 1 {
				t.Fatalf("scripted fault never fired (fired=%v); the run saw no fault", fired)
			}
			if dialer.Dials() < 2 {
				t.Fatalf("dials = %d, want ≥ 2 (reconnect must have happened)", dialer.Dials())
			}
			if faulted.Power.Degraded {
				t.Fatal("run degraded; a single transient fault must heal, not degrade")
			}
			if faulted.Products != base.Products {
				t.Errorf("products: faulted %d, fault-free %d", faulted.Products, base.Products)
			}
			if len(faulted.Power.Samples) != len(base.Power.Samples) {
				t.Fatalf("power samples: faulted %d, fault-free %d",
					len(faulted.Power.Samples), len(base.Power.Samples))
			}
			for i := range base.Power.Samples {
				if faulted.Power.Samples[i] != base.Power.Samples[i] {
					t.Fatalf("power sample %d differs: faulted %v, fault-free %v (session replay lost provider state)",
						i, faulted.Power.Samples[i], base.Power.Samples[i])
				}
			}
		})
	}
}

// TestRunDegradesWhenProviderDies kills every connection, including the
// reconnect attempts: the run must complete with partial estimates and a
// degradation record instead of failing.
func TestRunDegradesWhenProviderDies(t *testing.T) {
	leakcheck.Check(t)
	for _, s := range []Scenario{EstimatorRemote, MultiplierRemote} {
		t.Run(s.String(), func(t *testing.T) {
			base, err := Run(s, resilientCfg())
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}

			cfg := resilientCfg()
			r := DefaultResilience()
			cfg.Resilience = &r
			// First connection dies mid-run; every reconnect dies during
			// its handshake. DefaultRetry makes 4 attempts, so 4 plans.
			_, via := faultDialer([]*netsim.FaultPlan{
				netsim.ResetAfterWrites(9),
				netsim.ResetAfterWrites(1),
				netsim.ResetAfterWrites(1),
				netsim.ResetAfterWrites(1),
			})
			cfg.DialVia = via
			res, err := Run(s, cfg)
			if err != nil {
				t.Fatalf("degraded run must complete, got: %v", err)
			}
			if !res.Power.Degraded {
				t.Fatal("run not marked degraded")
			}
			if res.Power.LostBatches < 1 {
				t.Errorf("lost batches = %d, want ≥ 1", res.Power.LostBatches)
			}
			if res.Products != base.Products {
				t.Errorf("products: degraded %d, fault-free %d — the design must keep simulating",
					res.Products, base.Products)
			}
			if len(res.Power.Samples) >= len(base.Power.Samples) {
				t.Errorf("degraded run has %d samples, fault-free %d; estimates after death must come from the fallback",
					len(res.Power.Samples), len(base.Power.Samples))
			}
		})
	}
}

// TestSetupMarkDegraded covers the degradation bookkeeping the OnDegrade
// hooks feed: first report per (module, parameter) warns, repeats dedupe.
func TestSetupMarkDegraded(t *testing.T) {
	leakcheck.Check(t)
	s := estim.NewSetup("t")
	if s.Degraded() {
		t.Fatal("fresh setup already degraded")
	}
	s.MarkDegraded("MULT", estim.ParamAvgPower, "provider dead")
	s.MarkDegraded("MULT", estim.ParamAvgPower, "second report")
	if !s.Degraded() {
		t.Fatal("setup not degraded after MarkDegraded")
	}
	s.MarkDegraded("OTHER", estim.ParamArea, "other reason")
	w := s.Warnings()
	if len(w) != 2 {
		t.Fatalf("warnings = %d, want 2 (duplicate reports dedupe)", len(w))
	}
	if w[0].Module != "MULT" || w[0].Param != estim.ParamAvgPower || w[0].Reason != "provider dead" {
		t.Errorf("first warning = %+v; want MULT's first reason kept", w[0])
	}
	if w[1].Module != "OTHER" || w[1].Param != estim.ParamArea {
		t.Errorf("second warning = %+v; want OTHER's own entry", w[1])
	}
}
