package core

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/provider"
)

// chaosCfg returns the chaos sweep's scenario configuration: small
// enough to sweep, full resilience so transient faults heal through
// reconnect and session replay.
func chaosCfg(seed uint64, inflight int) Config {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	cfg.Seed = int64(seed)
	cfg.InFlight = inflight
	r := DefaultResilience()
	cfg.Resilience = &r
	return cfg
}

// chaosRun runs scenario s with the provider's pipe transport behind the
// schedule cs, and reports how many dials the run made.
func chaosRun(s Scenario, cfg Config, cs *netsim.ChaosSchedule) (*Result, int64, error) {
	var dials atomic.Int64
	cfg.DialVia = func(p *provider.Provider) func() (net.Conn, error) {
		dial := cs.Dialer(PipeDialer(p))
		return func() (net.Conn, error) {
			dials.Add(1)
			return dial()
		}
	}
	res, err := Run(s, cfg)
	return res, dials.Load(), err
}

// assertSameRun compares the bit-exact outcome of a chaos run against
// the clean baseline: products, sample count, and every power value.
func assertSameRun(t *testing.T, base, got *Result) {
	t.Helper()
	if got.Power.Degraded {
		t.Fatal("run degraded although the provider came back")
	}
	if got.Products != base.Products {
		t.Errorf("products %d, baseline %d", got.Products, base.Products)
	}
	if len(got.Power.Samples) != len(base.Power.Samples) {
		t.Fatalf("power samples %d, baseline %d", len(got.Power.Samples), len(base.Power.Samples))
	}
	for i := range base.Power.Samples {
		if got.Power.Samples[i] != base.Power.Samples[i] {
			t.Fatalf("power sample %d differs: %v vs baseline %v", i, got.Power.Samples[i], base.Power.Samples[i])
		}
	}
}

// assertDegraded checks the outcome of a provider that dies mid-run and
// stays dead: the run completes, marked degraded with at least one lost
// batch, the design keeps simulating, and the missing estimates show.
func assertDegraded(t *testing.T, base, got *Result) {
	t.Helper()
	if !got.Power.Degraded {
		t.Fatal("dead-provider run not marked degraded")
	}
	if got.Power.LostBatches < 1 {
		t.Errorf("lost batches = %d, want ≥ 1", got.Power.LostBatches)
	}
	if got.Products != base.Products {
		t.Errorf("products %d, baseline %d — the design must keep simulating", got.Products, base.Products)
	}
	if len(got.Power.Samples) >= len(base.Power.Samples) {
		t.Errorf("degraded run reports %d samples, baseline %d; partial results must be visible", len(got.Power.Samples), len(base.Power.Samples))
	}
}

// TestChaosSweepBitIdentical is the robustness contract of a provider
// session: seeds 1–3 × {ER, MR} × pipeline depth {1, 8}, each cell
// running every seeded fault kind against the one provider and
// comparing with the seeded clean run at depth 1.
//   - flap and slow-drip heal through reconnect and session replay,
//     bit-identical to the clean run;
//   - a kill mid-run ends in explicit degradation;
//   - a partition, or a kill during the handshake, fails Run with the
//     injected fault in its error chain.
//
// The "nocache" leaf in the cell names dates from a swept estimation
// cache and keeps each cell's name stable.
func TestChaosSweepBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, s := range []Scenario{EstimatorRemote, MultiplierRemote} {
			for _, inflight := range []int{1, 8} {
				t.Run(map[int]string{1: "depth1", 8: "depth8"}[inflight]+"/nocache", func(t *testing.T) {
					leakcheck.Check(t)
					base, err := Run(s, chaosCfg(seed, 1))
					if err != nil {
						t.Fatalf("%v seed %d baseline: %v", s, seed, err)
					}
					if base.PowerSamples == 0 {
						t.Fatal("baseline produced no power samples; test premise broken")
					}
					for kind := netsim.ChaosKill; kind <= netsim.ChaosFlap; kind++ {
						t.Run(kind.String(), func(t *testing.T) {
							res, dials, err := chaosRun(s, chaosCfg(seed, inflight), netsim.NewChaosSchedule(seed, kind))
							if kind == netsim.ChaosPartition {
								if !errors.Is(err, netsim.ErrChaosPartition) {
									t.Fatalf("%v seed %d: partitioned run err = %v, want ErrChaosPartition", s, seed, err)
								}
								return
							}
							if err != nil {
								t.Fatalf("%v seed %d: %v", s, seed, err)
							}
							switch kind {
							case netsim.ChaosKill:
								assertDegraded(t, base, res)
							case netsim.ChaosFlap:
								if dials < 2 {
									t.Fatalf("%v seed %d: flap run dialed %d times; the reset never forced a reconnect", s, seed, dials)
								}
								assertSameRun(t, base, res)
							default:
								assertSameRun(t, base, res)
							}
						})
					}
					t.Run("handshake-kill", func(t *testing.T) {
						cs := &netsim.ChaosSchedule{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(1)}
						if _, _, err := chaosRun(s, chaosCfg(seed, inflight), cs); !errors.Is(err, netsim.ErrInjectedReset) {
							t.Fatalf("%v seed %d: handshake-kill err = %v, want ErrInjectedReset", s, seed, err)
						}
					})
				})
			}
		}
	}
}

// TestChaosMultEvalErrorFailsRun pins the MR failure path without
// session recovery: a flap resets the connection at write 5, the clean
// redial opens a new session that holds no bound instance, and the
// multiplier's next remote eval fails with something other than a dead
// provider. Run must return that error after the simulation, not panic.
func TestChaosMultEvalErrorFailsRun(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosCfg(1, 1)
	cfg.Resilience.Recover = false
	cs := &netsim.ChaosSchedule{Kind: netsim.ChaosFlap, Plan: netsim.ResetAfterWrites(5)}
	res, _, err := chaosRun(MultiplierRemote, cfg, cs)
	if err == nil || !strings.Contains(err.Error(), "no instance") {
		t.Fatalf("MR flap without recovery: res %v, err %v; want an error naming the missing instance", res, err)
	}
}
