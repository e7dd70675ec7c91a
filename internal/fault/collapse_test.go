package fault

import (
	"math/bits"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

// TestEquivalenceClassesAreFunctionallyEquivalent is the semantic check
// behind structural collapsing: every fault merged into a class must
// produce EXACTLY the same faulty outputs as its representative, on every
// input pattern. Run over a spread of random circuits.
func TestEquivalenceClassesAreFunctionallyEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		nl := gate.RandomCombinational(4, 18, 3, seed)
		if err := nl.Build(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		classes := EquivalenceClasses(nl)
		le, err := nl.NewLaneEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		var patterns [][]signal.Bit
		for v := uint64(0); v < 16; v++ {
			patterns = append(patterns, nl.InputWord(v))
		}
		// faulty returns f's outputs on every pattern, one lane each.
		faulty := func(f gate.Fault) []gate.Plane {
			if err := le.InjectStuckAt(f); err != nil {
				t.Fatal(err)
			}
			if err := le.EvalBatch(patterns); err != nil {
				t.Fatal(err)
			}
			return le.OutputPlanes(nil)
		}
		for rep, class := range classes {
			if len(class) == 1 {
				continue
			}
			ref := faulty(rep)
			for _, f := range class {
				for j, p := range faulty(f) {
					if d := (p.Known ^ ref[j].Known) | (p.Value ^ ref[j].Value); d != 0 {
						t.Fatalf("seed %d: fault %s not equivalent to class rep %s (pattern %d, output %d)",
							seed, f.Symbol(nl), rep.Symbol(nl), bits.TrailingZeros64(d), j)
					}
				}
			}
		}
	}
}

// TestCollapsedCoverageEqualsFullCoverage: simulating only the collapsed
// representatives must yield the same per-class detection verdicts as
// simulating the full universe.
func TestCollapsedCoverageEqualsFullCoverage(t *testing.T) {
	nl := gate.RandomCombinational(4, 15, 3, 99)
	var patterns [][]signal.Bit
	for v := uint64(0); v < 16; v++ {
		patterns = append(patterns, nl.InputWord(v))
	}
	classes := EquivalenceClasses(nl)
	full, err := SerialSimulateFaults(nl, Enumerate(nl), patterns)
	if err != nil {
		t.Fatal(err)
	}
	collapsed, err := SerialSimulate(nl, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for rep, class := range classes {
		repSym := rep.Symbol(nl)
		_, repDet := collapsed.Detected[repSym]
		for _, f := range class {
			_, fDet := full.Detected[f.Symbol(nl)]
			if fDet != repDet {
				t.Errorf("class %s: member %s detected=%v, representative detected=%v",
					repSym, f.Symbol(nl), fDet, repDet)
			}
		}
	}
}
