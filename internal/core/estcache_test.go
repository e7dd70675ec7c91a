package core

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/signal"
)

func pat(bits ...signal.Bit) []signal.Bit { return bits }

// TestEstimationCacheChainKeys pins the content-addressing contract:
// identical histories produce identical keys, and any divergence — a
// different pattern, or the same pattern after a different prefix —
// changes every subsequent key.
func TestEstimationCacheChainKeys(t *testing.T) {
	c := NewEstimationCache()
	a := c.newSession("fp")
	b := c.newSession("fp")
	_, ka, _ := a.lookup([][]signal.Bit{pat(signal.B0), pat(signal.B1)})
	_, kb, _ := b.lookup([][]signal.Bit{pat(signal.B0), pat(signal.B1)})
	if !reflect.DeepEqual(ka, kb) {
		t.Error("identical histories produced different keys")
	}

	// Same second pattern behind a different first one: its key must differ.
	d := c.newSession("fp")
	_, kd, _ := d.lookup([][]signal.Bit{pat(signal.B1), pat(signal.B1)})
	if kd[1] == ka[1] {
		t.Error("history divergence did not change the later key")
	}

	// A different setup fingerprint must not alias even on equal stimulus.
	e := c.newSession("other")
	_, ke, _ := e.lookup([][]signal.Bit{pat(signal.B0), pat(signal.B1)})
	if ke[0] == ka[0] {
		t.Error("different fingerprints aliased")
	}
}

// TestEstimationCacheHitAndReplayDebt walks the miss→commit→hit cycle:
// a committed batch is served locally by a later session with the same
// history. The served patterns are replay debt the next miss transmits;
// the estimator's pattern log keeps it (TestCatchUpLogAfterClose).
func TestEstimationCacheHitAndReplayDebt(t *testing.T) {
	c := NewEstimationCache()
	batch := [][]signal.Bit{pat(signal.B0, signal.B1), pat(signal.B1, signal.B1)}

	s1 := c.newSession("fp")
	if _, keys, hit := s1.lookup(batch); hit {
		t.Fatal("empty cache reported a hit")
	} else {
		c.commit(keys, []float64{1.5, 2.5})
	}
	if c.Size() != 2 {
		t.Fatalf("cache size = %d, want 2", c.Size())
	}

	s2 := c.newSession("fp")
	vals, _, hit := s2.lookup(batch)
	if !hit {
		t.Fatal("committed batch missed")
	}
	if vals[0] != 1.5 || vals[1] != 2.5 {
		t.Errorf("hit values = %v", vals)
	}

	// Partial coverage is all-or-nothing: extending the history past the
	// cached prefix must miss the whole batch.
	s3 := c.newSession("fp")
	long := append(append([][]signal.Bit{}, batch...), pat(signal.B0, signal.B0))
	if _, _, hit := s3.lookup(long); hit {
		t.Error("partially cached batch reported a full hit")
	}
}

// TestEstimationCacheCommitShapeMismatch: a provider reply of the wrong
// length must cache nothing rather than mis-associate values.
func TestEstimationCacheCommitShapeMismatch(t *testing.T) {
	c := NewEstimationCache()
	s := c.newSession("fp")
	_, keys, _ := s.lookup([][]signal.Bit{pat(signal.B0), pat(signal.B1)})
	c.commit(keys, []float64{1})
	if c.Size() != 0 {
		t.Errorf("mismatched commit cached %d values", c.Size())
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

// TestScenarioCacheHitsAndDeterminism is the caching half: a repeated
// run against a shared cache must serve batches locally (observable hit
// counters, fewer RMI calls, bytes saved) while returning bit-identical
// power values.
func TestScenarioCacheHitsAndDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 20
	_, plainSamples := scenarioSamples(t, cfg)

	cache := NewEstimationCache()
	cfg.Cache = cache
	cold, coldSamples := scenarioSamples(t, cfg)
	if cold.CacheHits != 0 {
		t.Errorf("cold run reported %d cache hits", cold.CacheHits)
	}
	if cold.CacheMisses == 0 {
		t.Error("cold run metered no cache misses")
	}
	if !reflect.DeepEqual(plainSamples, coldSamples) {
		t.Error("enabling the cache changed the cold run's values")
	}

	warm, warmSamples := scenarioSamples(t, cfg)
	if warm.CacheHits == 0 {
		t.Fatal("repeat run produced no cache hits")
	}
	if warm.CacheBytesSaved == 0 {
		t.Error("cache hits saved no bytes")
	}
	if warm.Calls >= cold.Calls {
		t.Errorf("repeat run made %d calls, cold made %d; hits did not stay off the wire", warm.Calls, cold.Calls)
	}
	if !reflect.DeepEqual(plainSamples, warmSamples) {
		t.Error("cache-served values diverged from remote values")
	}
	if warm.Power.CacheHits != warm.CacheHits {
		t.Errorf("report hits %d != meter hits %d", warm.Power.CacheHits, warm.CacheHits)
	}
	if cache.Hits() == 0 || cache.BytesSaved() == 0 {
		t.Errorf("shared cache counters: hits=%d saved=%d", cache.Hits(), cache.BytesSaved())
	}
}

// failoverCacheCfg returns a 2-replica ER configuration whose first
// replica dies mid-run (connection reset after resetAfter writes,
// redials refused), forcing a failover the rmi layer heals through
// reconnect + journal replay.
func failoverCacheCfg(t *testing.T, cache *EstimationCache, resetAfter int) Config {
	t.Helper()
	cfg := chaosCfg(2, 8)
	cfg.Cache = cache
	cfg.ReplicaDialers = func(provs []*provider.Provider) []func() (net.Conn, error) {
		cs := netsim.ScriptedSchedule(1,
			netsim.ReplicaScript{Kind: netsim.ChaosKill, Plan: netsim.ResetAfterWrites(resetAfter), RefuseFrom: 1},
			netsim.ReplicaScript{Kind: netsim.ChaosNone, RefuseFrom: -1},
		)
		return []func() (net.Conn, error){
			cs.Dialer(0, PipeDialer(provs[0])),
			cs.Dialer(1, PipeDialer(provs[1])),
		}
	}
	return cfg
}

// TestCacheStaysArmedAcrossHealedFailover is the latched-off regression
// contract from the failover work: transport faults the rmi layer HEALS
// (retry, reconnect, journal replay, replica failover) never reach the
// estimator as batch errors, so the cache must stay armed — observable
// as commits landing after the failover. Only an unhealable loss (a
// batch that actually died) may latch the cache off.
func TestCacheStaysArmedAcrossHealedFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	_, plainSamples := scenarioSamples(t, cfg)

	cache := NewEstimationCache()
	res, coldSamples := scenarioSamples(t, failoverCacheCfg(t, cache, 5))
	if res.Failovers < 1 {
		t.Fatalf("failovers = %d; the scripted kill never forced one", res.Failovers)
	}
	if res.Power.Degraded {
		t.Fatal("healed failover degraded the run")
	}
	if !reflect.DeepEqual(plainSamples, coldSamples) {
		t.Error("failover run's values diverged from the clean run")
	}
	// The armed-cache proof: commits landed after the failover too.
	if cache.Size() != cfg.Patterns {
		t.Errorf("cache holds %d values after the run, want %d — a healed failover latched it off", cache.Size(), cfg.Patterns)
	}

	// And the populated cache serves a clean repeat run bit-identically.
	repeatCfg := cfg
	repeatCfg.Cache = cache
	repeat, repeatSamples := scenarioSamples(t, repeatCfg)
	if repeat.CacheHits == 0 {
		t.Fatal("repeat run on the failover-populated cache produced no hits")
	}
	if !reflect.DeepEqual(plainSamples, repeatSamples) {
		t.Error("cache populated across a failover served diverged values")
	}
}

// TestWarmCacheReplayDebtSurvivesFailover drives a WARM cache through a
// mid-run failover: early batches hit locally (accumulating replay
// debt), the connection dies, and the journal replay — which carries
// only transmitted batches — must still leave the provider's history
// consistent with the debt-carrying stream. Values must stay
// bit-identical and further commits remain sound.
func TestWarmCacheReplayDebtSurvivesFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	_, plainSamples := scenarioSamples(t, cfg)

	// Warm the cache with a clean run over HALF the stimulus: the pattern
	// stream is seeded, so the short run's history is a strict prefix of
	// the long run's, and the failover run opens on cache hits (building
	// replay debt) before its first real transmission — which the scripted
	// kill then interrupts mid-flight, debt and all.
	cache := NewEstimationCache()
	warmCfg := cfg
	warmCfg.Patterns = cfg.Patterns / 2
	warmCfg.Cache = cache
	scenarioSamples(t, warmCfg)
	if cache.Size() != warmCfg.Patterns {
		t.Fatalf("warm-up cached %d values, want %d", cache.Size(), warmCfg.Patterns)
	}

	// Most of the warm run's traffic is served from cache, so the kill
	// must land early in write terms: handshake plus the first replayed
	// transmission already clear five writes.
	res, samples := scenarioSamples(t, failoverCacheCfg(t, cache, 5))
	if res.Failovers < 1 {
		t.Fatalf("failovers = %d; the scripted kill never forced one", res.Failovers)
	}
	if res.CacheHits == 0 || res.CacheMisses == 0 {
		t.Fatalf("test premise broken: hits=%d misses=%d, want both nonzero", res.CacheHits, res.CacheMisses)
	}
	if !reflect.DeepEqual(plainSamples, samples) {
		t.Error("warm-cache failover run diverged from the clean run")
	}
	if cache.Size() != cfg.Patterns {
		t.Errorf("cache holds %d values, want %d refilled", cache.Size(), cfg.Patterns)
	}
}

// TestCacheLatchesOffOnLostBatch pins the other half of the contract:
// when a transmitted batch is genuinely LOST (provider declared dead),
// the provider-side history chain has irrecoverably diverged, so the
// latch is permanent and nothing from the broken run commits.
func TestCacheLatchesOffOnLostBatch(t *testing.T) {
	cache := NewEstimationCache()
	cfg := resilientCfg()
	r := DefaultResilience()
	cfg.Resilience = &r
	cfg.Cache = cache
	_, via := faultDialer([]*netsim.FaultPlan{
		netsim.ResetAfterWrites(9),
		netsim.ResetAfterWrites(1),
		netsim.ResetAfterWrites(1),
		netsim.ResetAfterWrites(1),
	})
	cfg.DialVia = via
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Power.Degraded {
		t.Fatal("test premise broken: run did not lose its provider")
	}
	// Nothing after the lost batch may commit. Values cached before the
	// loss are fine — their histories were truly executed.
	if cache.Size() >= cfg.Patterns {
		t.Errorf("cache holds %d values after a lost batch, want fewer than %d", cache.Size(), cfg.Patterns)
	}
}

// TestScenarioCacheSkipComputeBypassed: the Figure 3 methodology asks
// the provider to skip the power simulator, so its meaningless values
// must never be cached or served.
func TestScenarioCacheSkipComputeBypassed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 10
	cfg.SkipCompute = true
	cfg.Cache = NewEstimationCache()
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 || cfg.Cache.Size() != 0 {
		t.Errorf("SkipCompute run touched the cache: hits=%d misses=%d size=%d",
			res.CacheHits, res.CacheMisses, cfg.Cache.Size())
	}
}

// TestTable2DeterministicAcrossWorkersAndDepth extends the parallel
// experiment driver's determinism contract to the transport depth: the
// full Table 2 grid must produce identical per-cell power values and
// product counts whether run serially at depth 1 or on 4 workers with a
// deep pipeline.
func TestTable2DeterministicAcrossWorkersAndDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 10
	cfg.Workers = 1
	cfg.InFlight = 1
	serial, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	cfg.InFlight = 16
	deep, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(deep) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(deep))
	}
	for i := range serial {
		if serial[i].Products != deep[i].Products {
			t.Errorf("row %d: products %d vs %d", i, serial[i].Products, deep[i].Products)
		}
		var a, b []float64
		if serial[i].Power != nil {
			a = serial[i].Power.Samples
		}
		if deep[i].Power != nil {
			b = deep[i].Power.Samples
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("row %d: power samples diverged across workers/depth", i)
		}
	}
}
