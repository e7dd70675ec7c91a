package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/module"
	"repro/internal/sim"
)

// Fingerprint hashes every deterministic field of the result — counts,
// call traffic, fees and the full per-pattern power record — into a hex
// digest. Wall-clock columns are excluded by construction, and so is the
// raw byte meter: wire framing under the pipelined transport coalesces
// by timing, so Bytes varies between byte-identical simulations. Two
// runs of the same configuration must produce identical fingerprints
// regardless of pipeline depth; the golden corpora under testdata/golden
// pin exactly this.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "scenario=%s host=%s products=%d samples=%d fees=%x\n",
		r.Scenario, r.Host, r.Products, r.PowerSamples, math.Float64bits(r.FeesCents))
	// The zeros once counted a client-side estimation cache. They stay in
	// the hashed line so every digest keeps its value: benchmark/golden.json
	// pins the mr-local and er-wan cold digests, and the rows of
	// testdata/golden/fingerprints.txt pin the same line.
	fmt.Fprintf(h, "calls=%d hits=0 misses=0 saved=0\n", r.Calls)
	if r.Power != nil {
		fmt.Fprintf(h, "sent=%d avg=%x peak=%x degraded=%v lost=%d\n",
			r.Power.Sent, math.Float64bits(r.Power.AvgPower), math.Float64bits(r.Power.PeakPower),
			r.Power.Degraded, r.Power.LostBatches)
		for _, v := range r.Power.Samples {
			fmt.Fprintf(h, "%x\n", math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CircuitFingerprint simulates an arbitrary circuit and digests the
// observation history of every given primary output (time and value, in
// order). The digest is the bit-identity witness for runs of generated
// designs, pinned in testdata/golden/generated.txt.
//
// Used only by tests: TestGoldenGeneratedDesigns,
// TestGenerateCircuitDeterministic.
func CircuitFingerprint(c *module.Circuit, outs []*module.PrimaryOutput, until sim.Time) (string, error) {
	simu := module.NewSimulation(c)
	simu.Until = until
	stats := simu.Start(nil)
	if stats.Err != nil {
		return "", stats.Err
	}
	h := sha256.New()
	for _, out := range outs {
		fmt.Fprintf(h, "%s:\n", out.ModuleName())
		for _, obs := range out.History(stats.Scheduler) {
			fmt.Fprintf(h, "%d=%v\n", obs.Time, obs.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
