package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/gate"
	"repro/internal/signal"
)

// TestSet is a compacted test sequence for one component, together with
// the coverage it achieves over the component's collapsed fault list.
// The paper observes that "a good test sequence is IP that might need
// protection": providers generate these from the private netlist and sell
// them; internal/provider serves them over the ip.testset method.
type TestSet struct {
	Patterns [][]signal.Bit
	Coverage float64
	// Candidates is how many random candidates the generator examined.
	Candidates int
}

// GenerateTests builds a compact test set by random-search ATPG with
// fault dropping: random candidate patterns are fault-simulated and kept
// only when they detect at least one still-undetected fault; a reverse
// pass then removes patterns made redundant by later ones. The search
// stops when full coverage is reached, after maxCandidates candidates, or
// after 4·maxCandidates/5 consecutive useless candidates.
//
// The result is deterministic in the seed; callers that thread one
// generator through several stages use GenerateTestsRand directly.
func GenerateTests(nl *gate.Netlist, maxCandidates int, seed int64) (*TestSet, error) {
	return GenerateTestsRand(nl, maxCandidates, rand.New(rand.NewSource(seed)))
}

// GenerateTestsRand is GenerateTests drawing candidates from the given
// explicitly seeded generator — the sanctioned source of randomness in
// kernel code (gocad-lint simdeterminism forbids the global one).
func GenerateTestsRand(nl *gate.Netlist, maxCandidates int, r *rand.Rand) (*TestSet, error) {
	if maxCandidates < 1 {
		return nil, fmt.Errorf("fault: maxCandidates %d", maxCandidates)
	}
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	reps := Collapse(nl)
	nIn := len(nl.Inputs())

	alive := append([]gate.Fault(nil), reps...)
	var kept [][]signal.Bit
	dryRun := 0
	dryLimit := 4*maxCandidates/5 + 1
	candidates := 0
	for ; candidates < maxCandidates && len(alive) > 0 && dryRun < dryLimit; candidates++ {
		pattern := make([]signal.Bit, nIn)
		for i := range pattern {
			if r.Intn(2) == 1 {
				pattern[i] = signal.B1
			}
		}
		detected, err := detectAny(ev, pattern, alive)
		if err != nil {
			return nil, err
		}
		if len(detected) == 0 {
			dryRun++
			continue
		}
		dryRun = 0
		kept = append(kept, pattern)
		alive = removeFaults(alive, detected)
	}

	// Reverse compaction: drop patterns whose detections are covered by
	// the remaining set.
	kept = reverseCompact(nl, reps, kept)

	res, err := SerialSimulateFaults(nl, reps, kept)
	if err != nil {
		return nil, err
	}
	return &TestSet{Patterns: kept, Coverage: res.Coverage(), Candidates: candidates}, nil
}

// detectAny returns the alive faults the pattern detects, from one
// bit-parallel sweep of the pattern over every alive fault.
func detectAny(ev *gate.LaneEvaluator, pattern []signal.Bit, alive []gate.Fault) ([]gate.Fault, error) {
	var good []signal.Bit
	var out []gate.Fault
	err := ev.SweepStuckAt(pattern, alive, func(i int, bad []signal.Bit) {
		if i < 0 {
			good = bad
		} else if knownDiff(good, bad) {
			out = append(out, alive[i])
		}
	})
	return out, err
}

// removeFaults filters detected faults out of the alive list.
func removeFaults(alive, detected []gate.Fault) []gate.Fault {
	drop := make(map[gate.Fault]bool, len(detected))
	for _, f := range detected {
		drop[f] = true
	}
	out := alive[:0]
	for _, f := range alive {
		if !drop[f] {
			out = append(out, f)
		}
	}
	return out
}

// reverseCompact removes patterns (scanning from the oldest) that no
// longer contribute unique detections.
func reverseCompact(nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit) [][]signal.Bit {
	if len(patterns) <= 1 {
		return patterns
	}
	base, err := SerialSimulateFaults(nl, reps, patterns)
	if err != nil {
		return patterns
	}
	target := len(base.Detected)
	kept := append([][]signal.Bit(nil), patterns...)
	for i := 0; i < len(kept); {
		trial := append(append([][]signal.Bit(nil), kept[:i]...), kept[i+1:]...)
		res, err := SerialSimulateFaults(nl, reps, trial)
		if err != nil {
			return kept
		}
		if len(res.Detected) == target {
			kept = trial
			continue // same index now holds the next pattern
		}
		i++
	}
	return kept
}

// knownDiff reports whether two bit vectors differ at any position where
// both hold known values.
func knownDiff(a, b []signal.Bit) bool {
	for i := range a {
		if i < len(b) && a[i].Known() && b[i].Known() && a[i] != b[i] {
			return true
		}
	}
	return false
}
