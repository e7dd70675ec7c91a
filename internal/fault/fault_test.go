package fault

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

func TestEnumerateCountsTwoPerNet(t *testing.T) {
	nl := gate.RippleAdder(2)
	fs := Enumerate(nl)
	if len(fs) != 2*nl.NumNets() {
		t.Errorf("enumerated %d faults over %d nets", len(fs), nl.NumNets())
	}
}

func TestCollapseReducesFaultCount(t *testing.T) {
	nl := gate.ArrayMultiplier(4)
	full := Enumerate(nl)
	reps := Collapse(nl)
	if len(reps) >= len(full) {
		t.Errorf("collapse did not reduce: %d -> %d", len(full), len(reps))
	}
	if len(reps) == 0 {
		t.Error("collapse removed everything")
	}
}

func TestCollapseChainOfBuffers(t *testing.T) {
	// a -> BUF x -> BUF y: x.sa0 ≡ y.sa0 and a.sa0 ≡ x.sa0 (fanout-free),
	// so the whole chain collapses to 2 classes (sa0, sa1) plus nothing
	// else.
	nl := gate.NewNetlist("chain")
	a := nl.AddInput("a")
	x := nl.AddGate(gate.Buf, "x", a)
	y := nl.AddGate(gate.Buf, "y", x)
	nl.MarkOutput(y)
	reps := Collapse(nl)
	if len(reps) != 2 {
		t.Errorf("buffer chain collapsed to %d classes, want 2", len(reps))
	}
}

func TestCollapseRespectsFanout(t *testing.T) {
	// a feeds two AND gates: a.sa0 must NOT merge with either gate output.
	nl := gate.NewNetlist("fan")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	o1 := nl.AddGate(gate.And, "o1", a, b)
	o2 := nl.AddGate(gate.And, "o2", a, c)
	nl.MarkOutput(o1)
	nl.MarkOutput(o2)
	classes := EquivalenceClasses(nl)
	for rep, class := range classes {
		hasA := false
		hasOut := false
		for _, f := range class {
			if f.Net == a {
				hasA = true
			}
			if f.Net == o1 || f.Net == o2 {
				hasOut = true
			}
		}
		if hasA && hasOut {
			t.Errorf("class of %v merges fanout stem with branch output", rep)
		}
	}
}

func TestEquivalenceClassesCoverUniverse(t *testing.T) {
	nl := gate.RippleAdder(3)
	classes := EquivalenceClasses(nl)
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	if total != 2*nl.NumNets() {
		t.Errorf("classes cover %d faults, want %d", total, 2*nl.NumNets())
	}
}

func TestSymbolicListNetNames(t *testing.T) {
	nl := gate.HalfAdderIP()
	sl := buildSymbolicList(nl, NetNames, false)
	names := sl.Names()
	if len(names) == 0 {
		t.Fatal("empty symbolic list")
	}
	found := false
	for _, n := range names {
		if strings.HasPrefix(n, "I") && (strings.HasSuffix(n, "sa0") || strings.HasSuffix(n, "sa1")) {
			found = true
		}
		f, ok := sl.Fault(n)
		if !ok {
			t.Fatalf("name %q does not resolve", n)
		}
		if f.Symbol(nl) != n {
			// Internal-only lists may rename; plain lists must round-trip.
			t.Errorf("name %q resolves to %q", n, f.Symbol(nl))
		}
	}
	if !found {
		t.Error("no internal-net fault names present")
	}
	if sl.Len() != len(names) {
		t.Error("Len mismatch")
	}
}

func TestSymbolicListAnonymous(t *testing.T) {
	nl := gate.HalfAdderIP()
	sl := buildSymbolicList(nl, Anonymous, false)
	for _, n := range sl.Names() {
		if !strings.HasPrefix(n, "f") {
			t.Errorf("anonymous name %q leaks structure", n)
		}
		if _, ok := sl.Fault(n); !ok {
			t.Errorf("anonymous name %q does not resolve", n)
		}
	}
}

func TestInternalSymbolicListExcludesPortFaults(t *testing.T) {
	nl := gate.HalfAdderIP()
	sl := buildSymbolicList(nl, NetNames, true)
	for _, n := range sl.Names() {
		f, _ := sl.Fault(n)
		if nl.IsInput(f.Net) || nl.IsOutput(f.Net) {
			t.Errorf("internal list contains port fault %q", n)
		}
	}
	// The half adder's internal list must mention the paper's I-nets.
	names := strings.Join(sl.Names(), " ")
	for _, want := range []string{"I1", "I4"} {
		if !strings.Contains(names, want) {
			t.Errorf("internal list %q missing %s faults", names, want)
		}
	}
}

func TestDetectionTableFigure4InputConfig(t *testing.T) {
	// IP1 with inputs (IIP1, IIP2) = (1, 0): the paper's Figure 4b.
	nl := gate.HalfAdderIP()
	lt, err := NewLocalTestability(nl, NetNames, true)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free configuration must be (OIP1, OIP2) = (1, 0).
	if dt.FaultFree.Bit(0) != signal.B1 || dt.FaultFree.Bit(1) != signal.B0 {
		t.Fatalf("fault-free outputs = %v, want sum=1 carry=0", dt.FaultFree)
	}
	if len(dt.Rows) == 0 {
		t.Fatal("empty detection table")
	}
	// Every row's output must differ from the fault-free pattern, and
	// every listed fault must reproduce exactly that row's output.
	le, _ := nl.NewLaneEvaluator()
	for _, row := range dt.Rows {
		if row.Output.Equal(dt.FaultFree) {
			t.Error("row equals fault-free output")
		}
		for _, name := range row.Faults {
			f, ok := lt.list.Fault(name)
			if !ok {
				t.Fatalf("row fault %q unresolvable", name)
			}
			if err := le.InjectStuckAt(f); err != nil {
				t.Fatal(err)
			}
			out, err := le.Eval([]signal.Bit{signal.B1, signal.B0})
			if err != nil {
				t.Fatal(err)
			}
			if got := signal.WordFromBits(out); !got.Equal(row.Output) {
				t.Errorf("fault %s produces %v, row says %v", name, got, row.Output)
			}
		}
	}
	// An erroneous-sum row (0,_) must exist: the faults the paper's
	// narrative propagates through O1.
	if !slices.Contains(dt.Faults(), "I4sa0") {
		t.Error("I4sa0 not excited by input (1,0)")
	}
}

func TestDetectionTableCaching(t *testing.T) {
	nl := gate.HalfAdderIP()
	lt, _ := NewLocalTestability(nl, NetNames, true)
	in := []signal.Bit{signal.B1, signal.B0}
	a, err := lt.DetectionTable(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lt.DetectionTable(in)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical input configurations not served from cache")
	}
}

// TestDetectionTableCacheBounded: the table cache holds at most
// detectionCacheCap entries, evicting the oldest first, and a table
// recomputed after eviction equals the one evicted.
func TestDetectionTableCacheBounded(t *testing.T) {
	nl := gate.RandomCombinational(11, 30, 2, 3)
	lt, err := NewLocalTestability(nl, NetNames, true)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lt.DetectionTable(nl.InputWord(0))
	if err != nil {
		t.Fatal(err)
	}
	var last *DetectionTable
	for v := uint64(1); v < detectionCacheCap+10; v++ {
		if last, err = lt.DetectionTable(nl.InputWord(v)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(lt.cache); n != detectionCacheCap {
		t.Fatalf("cache holds %d tables, want %d", n, detectionCacheCap)
	}
	if again, _ := lt.DetectionTable(nl.InputWord(detectionCacheCap + 9)); again != last {
		t.Error("newest table evicted")
	}
	again, err := lt.DetectionTable(nl.InputWord(0))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("oldest table still cached past the bound")
	}
	if again.ParamString() != first.ParamString() {
		t.Errorf("recomputed table %s, evicted %s", again.ParamString(), first.ParamString())
	}
	if n := len(lt.cache); n != detectionCacheCap {
		t.Fatalf("cache holds %d tables after a refill, want %d", n, detectionCacheCap)
	}
}

func TestDetectionTableWrongArity(t *testing.T) {
	nl := gate.HalfAdderIP()
	lt, _ := NewLocalTestability(nl, NetNames, true)
	if _, err := lt.DetectionTable([]signal.Bit{signal.B1}); err == nil {
		t.Error("wrong input arity accepted")
	}
}

// TestLocalTestabilityTooWide: detection tables hold input and output
// configurations as words, so a component with more than
// signal.MaxWordWidth inputs or outputs is refused at construction.
func TestLocalTestabilityTooWide(t *testing.T) {
	buf := func(ins, outs int) *gate.Netlist {
		nl := gate.NewNetlist(fmt.Sprintf("buf%dx%d", ins, outs))
		var in []gate.NetID
		for i := 0; i < ins; i++ {
			in = append(in, nl.AddInput(fmt.Sprintf("i%d", i)))
		}
		for o := 0; o < outs; o++ {
			nl.MarkOutput(nl.AddGate(gate.Buf, fmt.Sprintf("o%d", o), in[o%ins]))
		}
		return nl
	}
	for _, c := range []struct {
		ins, outs int
		ok        bool
	}{{64, 64, true}, {65, 1, false}, {1, 65, false}} {
		_, err := NewLocalTestability(buf(c.ins, c.outs), NetNames, true)
		if (err == nil) != c.ok {
			t.Errorf("%d inputs, %d outputs: err = %v, want ok=%v", c.ins, c.outs, err, c.ok)
		}
	}
}

func TestDetectionTableAccessors(t *testing.T) {
	nl := gate.HalfAdderIP()
	lt, _ := NewLocalTestability(nl, NetNames, true)
	dt, _ := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	if dt.IsNull() {
		t.Error("detection table reported null")
	}
	if dt.ParamString() == "" {
		t.Error("empty ParamString")
	}
	if len(dt.Faults()) == 0 {
		t.Error("Faults() empty")
	}
}

func TestSerialSimulateRippleAdderFullCoverage(t *testing.T) {
	// Exhaustive patterns must detect every collapsed fault of a small
	// adder (it is fully testable).
	nl := gate.RippleAdder(2)
	var patterns [][]signal.Bit
	for v := uint64(0); v < 16; v++ {
		patterns = append(patterns, nl.InputWord(v))
	}
	res, err := SerialSimulateFaults(nl, Collapse(nl), patterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("exhaustive coverage = %.3f, want 1.0", res.Coverage())
	}
	curve := res.CoverageCurve()
	if len(curve) != len(patterns) {
		t.Fatal("curve length mismatch")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("coverage curve not monotone")
		}
	}
}

func TestSerialSimulateFaultDroppingFirstDetection(t *testing.T) {
	nl := gate.RippleAdder(2)
	var patterns [][]signal.Bit
	for v := uint64(0); v < 16; v++ {
		patterns = append(patterns, nl.InputWord(v))
		patterns = append(patterns, nl.InputWord(v)) // duplicates
	}
	res, err := SerialSimulateFaults(nl, Collapse(nl), patterns)
	if err != nil {
		t.Fatal(err)
	}
	// With duplicated patterns, a dropped fault must never be re-reported.
	seen := map[string]bool{}
	for _, fs := range res.PerPattern {
		for _, f := range fs {
			if seen[f] {
				t.Fatalf("fault %s detected twice", f)
			}
			seen[f] = true
		}
	}
}

func TestCoverageEmptyResult(t *testing.T) {
	r := &Result{}
	if r.Coverage() != 0 {
		t.Error("empty result coverage not 0")
	}
}

func TestC17ExhaustiveCoverage(t *testing.T) {
	// c17 is fully testable: exhaustive patterns must detect every
	// collapsed fault. Counts are net-based (11 nets -> 22-fault
	// universe); the literature's larger c17 numbers count fanout-branch
	// PIN faults separately, which net-based modeling does not have.
	nl := gate.C17()
	if got := len(Enumerate(nl)); got != 22 {
		t.Errorf("c17 fault universe = %d, want 22", got)
	}
	reps := Collapse(nl)
	if len(reps) >= 22 || len(reps) == 0 {
		t.Errorf("c17 collapsed faults = %d, want a strict reduction", len(reps))
	}
	var patterns [][]signal.Bit
	for v := uint64(0); v < 32; v++ {
		patterns = append(patterns, nl.InputWord(v))
	}
	res, err := SerialSimulateFaults(nl, Collapse(nl), patterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("c17 exhaustive coverage = %.3f", res.Coverage())
	}
}

// Faults returns all symbolic faults excited by this input configuration.
func (dt *DetectionTable) Faults() []string {
	var out []string
	for _, r := range dt.Rows {
		out = append(out, r.Faults...)
	}
	sort.Strings(out)
	return out
}

// Fault resolves a symbolic name to the internal fault. Provider-side
// only: the mapping never leaves the provider. It scans the list.
func (sl *SymbolicList) Fault(name string) (gate.Fault, bool) {
	for i, n := range sl.names {
		if n == name {
			return sl.faults[i], true
		}
	}
	return gate.Fault{}, false
}

// Len returns the number of symbolic faults.
func (sl *SymbolicList) Len() int { return len(sl.names) }

// TestFlatSimulatorsRejectBadTargets: a target on a net outside the
// netlist, or a pattern of the wrong width, is an error from the flat
// reference simulator — never a silently undetected fault or a panic.
func TestFlatSimulatorsRejectBadTargets(t *testing.T) {
	nl := gate.C17()
	good := [][]signal.Bit{nl.InputWord(0), nl.InputWord(31)}
	short := [][]signal.Bit{nl.InputWord(0), {signal.B1}}
	for _, tc := range []struct {
		name     string
		net      gate.NetID
		patterns [][]signal.Bit
	}{
		{"past the last net", 9999, good},
		{"on a negative net", -1, good},
		{"without patterns", 9999, nil},
		{"short pattern", 2, short},
	} {
		faults := []gate.Fault{{Net: 1, Stuck: signal.B0}, {Net: tc.net, Stuck: signal.B1}}
		if _, err := SerialSimulateFaultsWorkers(nl, faults, tc.patterns, 2); err == nil {
			t.Errorf("stuck-at %s: accepted", tc.name)
		}
	}
}
