package core

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/replica"
)

// frozenClock is the deterministic breaker time source of the chaos
// harness: time never advances, so an opened breaker stays open (the
// last-resort probe pass is the only way back) and the failover ladder
// is a pure function of the schedule.
func frozenClock() time.Time { return time.Unix(1, 0) }

// chaosCfg returns the chaos sweep's scenario configuration: small
// enough to sweep, aggressive breakers (one strike opens, frozen clock),
// full resilience so transient faults heal through reconnect + replay.
func chaosCfg(replicas, inflight int) Config {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	cfg.InFlight = inflight
	r := DefaultResilience()
	cfg.Resilience = &r
	cfg.Replicas = replicas
	cfg.Breaker = replica.BreakerConfig{FailThreshold: 1, OpenFor: time.Hour}
	cfg.BreakerClock = frozenClock
	return cfg
}

// chaosDialers wraps each provider's pipe transport with a fresh seeded
// schedule — built inside the factory, so concurrent runs never share
// schedule state.
func chaosDialers(seed uint64) func(provs []*provider.Provider) []func() (net.Conn, error) {
	return func(provs []*provider.Provider) []func() (net.Conn, error) {
		cs := netsim.NewChaosSchedule(seed, len(provs))
		dials := make([]func() (net.Conn, error), len(provs))
		for i, p := range provs {
			dials[i] = cs.Dialer(i, PipeDialer(p))
		}
		return dials
	}
}

// assertSameRun compares the bit-exact outcome of a chaos run against
// the clean baseline: products, sample count, and every power value.
func assertSameRun(t *testing.T, base, got *Result) {
	t.Helper()
	if got.Power.Degraded {
		t.Fatal("run degraded despite a healthy replica in the schedule")
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

// TestChaosSweepBitIdentical is the tentpole's acceptance sweep: seeded
// fault schedules (kill, partition, slow-drip, flap) across replica
// counts and pipeline depths, every cell asserting the run heals through
// failover with results bit-identical to the clean single-provider
// baseline. The "nocache" leaf in the cell names dates from a swept
// estimation cache and keeps each cell's name stable.
func TestChaosSweepBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	base, err := Run(EstimatorRemote, chaosCfg(1, 1))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.PowerSamples == 0 {
		t.Fatal("baseline produced no power samples; test premise broken")
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, replicas := range []int{2, 3} {
			for _, inflight := range []int{1, 8} {
				t.Run(map[int]string{1: "depth1", 8: "depth8"}[inflight]+"/nocache", func(t *testing.T) {
					cfg := chaosCfg(replicas, inflight)
					cfg.Seed = int64(seed) // vary the stimulus with the schedule
					cfg.ReplicaDialers = chaosDialers(seed)
					baseCfg := chaosCfg(1, 1)
					baseCfg.Seed = int64(seed)
					b, err := Run(EstimatorRemote, baseCfg)
					if err != nil {
						t.Fatalf("seeded baseline: %v", err)
					}
					res, err := Run(EstimatorRemote, cfg)
					if err != nil {
						t.Fatalf("chaos run (seed %d, %d replicas): %v", seed, replicas, err)
					}
					assertSameRun(t, b, res)
				})
			}
		}
	}
}

// TestPatternLogReplaysAcrossHealedFailover kills the first of two
// replicas mid-run (connection reset after five writes, redials
// refused). The rmi layer heals the loss by failing over and replaying
// the session there, the estimator's pattern log included, so the run
// must not degrade and its values must match a clean run bit for bit.
func TestPatternLogReplaysAcrossHealedFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	_, plainSamples := scenarioSamples(t, cfg)

	failCfg := chaosCfg(2, 8)
	failCfg.ReplicaDialers = func(provs []*provider.Provider) []func() (net.Conn, error) {
		cs := netsim.ScriptedSchedule(1,
			netsim.ReplicaScript{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(5), RefuseFrom: 1},
			netsim.ReplicaScript{Kind: netsim.ChaosNone, RefuseFrom: -1},
		)
		return []func() (net.Conn, error){
			cs.Dialer(0, PipeDialer(provs[0])),
			cs.Dialer(1, PipeDialer(provs[1])),
		}
	}
	res, samples := scenarioSamples(t, failCfg)
	if res.Failovers < 1 {
		t.Fatalf("failovers = %d; the scripted kill never forced one", res.Failovers)
	}
	if res.Power.Degraded {
		t.Fatal("healed failover degraded the run")
	}
	if !reflect.DeepEqual(plainSamples, samples) {
		t.Error("failover run's values diverged from the clean run")
	}
}

// TestChaosMultiplierRemote runs one chaos cell through the MR scenario,
// where every functional evaluation crosses the faulty transport too.
func TestChaosMultiplierRemote(t *testing.T) {
	leakcheck.Check(t)
	base, err := Run(MultiplierRemote, chaosCfg(1, 1))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg := chaosCfg(3, 8)
	cfg.ReplicaDialers = chaosDialers(2)
	res, err := Run(MultiplierRemote, cfg)
	if err != nil {
		t.Fatalf("chaos MR run: %v", err)
	}
	assertSameRun(t, base, res)
}

// TestChaosTable2Workers drives chaos cells through the parallel
// experiment path shape: the same chaos cell at 1 and 4 workers'
// worth of config must agree (each run builds its own providers and
// schedules, so runs are independent by construction).
func TestChaosTable2Workers(t *testing.T) {
	leakcheck.Check(t)
	var prev *Result
	for _, workers := range []int{1, 4} {
		cfg := chaosCfg(2, 8)
		cfg.Workers = workers
		cfg.ReplicaDialers = chaosDialers(3)
		res, err := Run(EstimatorRemote, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if prev != nil {
			assertSameRun(t, prev, res)
		}
		prev = res
	}
}

// TestChaosFailoverObservable: a schedule that certainly kills the
// first-adopted replica must surface a nonzero failover count and a
// per-replica status snapshot.
func TestChaosFailoverObservable(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosCfg(2, 8)
	cfg.ReplicaDialers = func(provs []*provider.Provider) []func() (net.Conn, error) {
		// Binary framing is one write per frame (hello + 8 requests in a
		// clean ER run), so the kill at write 5 lands mid-run.
		cs := netsim.ScriptedSchedule(1,
			netsim.ReplicaScript{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(5), RefuseFrom: 1},
			netsim.ReplicaScript{Kind: netsim.ChaosNone, RefuseFrom: -1},
		)
		return []func() (net.Conn, error){
			cs.Dialer(0, PipeDialer(provs[0])),
			cs.Dialer(1, PipeDialer(provs[1])),
		}
	}
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers < 1 {
		t.Errorf("failovers = %d, want ≥ 1", res.Failovers)
	}
	if len(res.ReplicaStatuses) != 2 {
		t.Fatalf("replica statuses = %d entries, want 2", len(res.ReplicaStatuses))
	}
	if res.Power.Degraded {
		t.Fatal("failover to the healthy replica must not degrade the run")
	}
}

// TestChaosAllReplicasDead is the degradation half of the invariant:
// with every replica scripted dead the run must end in explicit,
// reported degradation — never a hang, an error, or silently full
// results.
func TestChaosAllReplicasDead(t *testing.T) {
	leakcheck.Check(t)
	base, err := Run(EstimatorRemote, chaosCfg(1, 1))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg := chaosCfg(2, 8)
	cfg.ReplicaDialers = func(provs []*provider.Provider) []func() (net.Conn, error) {
		// Replica 0 accepts once then dies mid-run and refuses redials;
		// replica 1 dies during any handshake and refuses redials.
		cs := netsim.ScriptedSchedule(-1,
			netsim.ReplicaScript{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(5), RefuseFrom: 1},
			netsim.ReplicaScript{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(1), RefuseFrom: 1},
		)
		return []func() (net.Conn, error){
			cs.Dialer(0, PipeDialer(provs[0])),
			cs.Dialer(1, PipeDialer(provs[1])),
		}
	}
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatalf("all-dead run must complete with degradation, got error: %v", err)
	}
	if !res.Power.Degraded {
		t.Fatal("all-dead run not marked degraded")
	}
	if res.Power.LostBatches < 1 {
		t.Errorf("lost batches = %d, want ≥ 1", res.Power.LostBatches)
	}
	if res.Products != base.Products {
		t.Errorf("products %d, baseline %d — the design must keep simulating", res.Products, base.Products)
	}
	if len(res.Power.Samples) >= len(base.Power.Samples) {
		t.Errorf("degraded run reports %d samples, baseline %d; partial results must be visible", len(res.Power.Samples), len(base.Power.Samples))
	}
}
