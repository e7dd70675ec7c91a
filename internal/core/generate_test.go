package core

import (
	"math/rand"
	"testing"

	"repro/internal/module"
)

// TestGenerateCircuitDeterministic: a (seed, spec) pair names exactly
// one design — the caller-routed rng is the only randomness source, so
// regenerating and resimulating must reproduce the fingerprint, and a
// different seed must not.
func TestGenerateCircuitDeterministic(t *testing.T) {
	spec := GenSpec{Patterns: 30}
	fp := func(seed int64) string {
		c, outs := GenerateCircuitRand(rand.New(rand.NewSource(seed)), spec)
		s, err := CircuitFingerprint(c, outs, 0)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		return s
	}
	if fp(7) != fp(7) {
		t.Fatal("same seed regenerated a different design")
	}
	if fp(7) == fp(8) {
		t.Fatal("different seeds generated identical designs")
	}
}

// TestGenerateCircuitShape: generated designs are hierarchical (each
// layer is a nested sub-circuit) and every dangling net is observed by
// a primary output.
func TestGenerateCircuitShape(t *testing.T) {
	spec := GenSpec{Inputs: 5, Layers: 3, LayerOps: 4, Patterns: 10}
	circuit, outs := GenerateCircuitRand(rand.New(rand.NewSource(42)), spec)

	subs := 0
	for _, child := range circuit.Children() {
		if _, ok := child.(*module.Circuit); ok {
			subs++
		}
	}
	if subs != spec.Layers {
		t.Errorf("top holds %d nested sub-circuits, want %d", subs, spec.Layers)
	}
	if len(outs) == 0 {
		t.Fatal("no primary outputs generated")
	}
	leaves := circuit.Leaves()
	if len(leaves) < spec.Inputs+spec.Layers*spec.LayerOps {
		t.Errorf("only %d leaves for %d inputs + %d ops", len(leaves),
			spec.Inputs, spec.Layers*spec.LayerOps)
	}
}

// TestGeneratedDesignAllocationBudget pins the allocation cost of the
// word-level kernel path on a reused Simulation of a generated design
// shaped like the gen-al benchmark workload: at most 0.6 allocations per
// delivered event. Word values are packed and operator scratch is
// per-run, so what remains is about one boxed WordValue per driven word.
func TestGeneratedDesignAllocationBudget(t *testing.T) {
	spec := GenSpec{Inputs: 8, Layers: 5, LayerOps: 8, Width: 16, Patterns: 200}
	c, outs := GenerateCircuitRand(rand.New(rand.NewSource(1999)), spec)
	simu := module.NewSimulation(c)
	var events uint64
	run := func() {
		st := simu.Start(nil)
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		for _, out := range outs {
			out.ReleaseHistory(st.Scheduler)
		}
		events = st.Delivered
	}
	run() // warm the recycled scheduler and the per-run module state
	allocs := testing.AllocsPerRun(5, run)
	if per := allocs / float64(events); per > 0.6 {
		t.Errorf("%.0f allocations for %d events: %.3f per event, budget 0.6", allocs, events, per)
	} else {
		t.Logf("%.0f allocations for %d events: %.3f per event", allocs, events, per)
	}
}
