package fault

import (
	"math/bits"
	"reflect"
	"strconv"
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
	collapsed, err := SerialSimulateFaults(nl, Collapse(nl), patterns)
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

// oracleKey and oracleUnionFind are the map-based union-find that fault
// collapsing ran on before it moved to dense indices, kept as the test
// oracle for the dense one.
type oracleKey struct {
	net   gate.NetID
	stuck signal.Bit
}

type oracleUnionFind map[oracleKey]oracleKey

func (u oracleUnionFind) find(k oracleKey) oracleKey {
	r, ok := u[k]
	if !ok || r == k {
		return k
	}
	root := u.find(r)
	u[k] = root
	return root
}

func (u oracleUnionFind) union(a, b oracleKey) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[ra] = rb
	}
}

// oracleClasses applies collapseUnion's gate rules on the map-based
// union-find and returns the equivalence classes in the order of their
// first members, each class in enumeration order.
func oracleClasses(nl *gate.Netlist) [][]gate.Fault {
	uf := oracleUnionFind{}
	for _, g := range nl.Gates() {
		for _, in := range g.In {
			if nl.Fanout(in) != 1 || nl.IsOutput(in) {
				continue
			}
			same := func(v signal.Bit) { uf.union(oracleKey{in, v}, oracleKey{g.Out, v}) }
			flip := func(v signal.Bit) { uf.union(oracleKey{in, v}, oracleKey{g.Out, v ^ 1}) }
			switch g.Kind {
			case gate.And:
				same(signal.B0)
			case gate.Nand:
				flip(signal.B0)
			case gate.Or:
				same(signal.B1)
			case gate.Nor:
				flip(signal.B1)
			case gate.Buf:
				same(signal.B0)
				same(signal.B1)
			case gate.Not:
				flip(signal.B0)
				flip(signal.B1)
			}
		}
	}
	byRoot := map[oracleKey]int{}
	var classes [][]gate.Fault
	for _, f := range Enumerate(nl) {
		root := uf.find(oracleKey{f.Net, f.Stuck})
		i, ok := byRoot[root]
		if !ok {
			i = len(classes)
			byRoot[root] = i
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], f)
	}
	return classes
}

// TestCollapseMatchesMapOracle: the dense union-find yields exactly the
// representatives, classes and symbolic lists of the map-based one on
// random netlists, whichever member each picks as a class root.
func TestCollapseMatchesMapOracle(t *testing.T) {
	merged, portOnly := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		nl := gate.RandomCombinational(2+int(seed%5), 10+int(seed*7%90), 1+int(seed%4), seed)
		if err := nl.Build(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		classes := oracleClasses(nl)
		var reps []gate.Fault
		wantClasses := map[gate.Fault][]gate.Fault{}
		for _, c := range classes {
			reps = append(reps, c[0])
			wantClasses[c[0]] = c
			if len(c) > 1 {
				merged++
			}
		}
		if got := Collapse(nl); !reflect.DeepEqual(got, reps) {
			t.Fatalf("seed %d: Collapse = %v, oracle %v", seed, got, reps)
		}
		if got := EquivalenceClasses(nl); !reflect.DeepEqual(got, wantClasses) {
			t.Fatalf("seed %d: EquivalenceClasses = %v, oracle %v", seed, got, wantClasses)
		}
		for _, internalOnly := range []bool{false, true} {
			for _, policy := range []Naming{NetNames, Anonymous} {
				var names []string
				want := map[string]gate.Fault{}
				for _, c := range classes {
					rep, ok := c[0], !internalOnly
					if internalOnly {
						for _, f := range c {
							if !nl.IsInput(f.Net) && !nl.IsOutput(f.Net) {
								rep, ok = f, true
								break
							}
						}
					}
					if !ok {
						portOnly++
						continue
					}
					name := rep.Symbol(nl)
					if policy == Anonymous {
						name = "f" + strconv.Itoa(len(names)) + "sa" + strconv.Itoa(int(rep.Stuck))
					}
					names = append(names, name)
					want[name] = rep
				}
				sl := buildSymbolicList(nl, policy, internalOnly)
				if got := sl.Names(); !reflect.DeepEqual(got, names) {
					t.Fatalf("seed %d internal=%v policy %d: names %v, oracle %v", seed, internalOnly, policy, got, names)
				}
				for name, f := range want {
					if got, ok := sl.Fault(name); !ok || got != f {
						t.Fatalf("seed %d internal=%v policy %d: %s resolves to %v, oracle %v", seed, internalOnly, policy, name, got, f)
					}
				}
			}
		}
	}
	if merged == 0 || portOnly == 0 {
		t.Fatalf("the netlists merged %d classes and dropped %d port-only ones; the oracle went unexercised", merged, portOnly)
	}
}
