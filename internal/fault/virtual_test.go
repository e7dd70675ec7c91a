package fault

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/gate"
	"repro/internal/module"
	"repro/internal/signal"
)

// fig4Pattern builds the ABCD input pattern from a 4-character string.
func fig4Pattern(t *testing.T, s string) []signal.Bit {
	t.Helper()
	if len(s) != 4 {
		t.Fatalf("pattern %q must have 4 bits", s)
	}
	out := make([]signal.Bit, 4)
	for i := 0; i < 4; i++ {
		b, err := signal.ParseBit(s[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestVirtualFaultListUnion(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	vs := d.NewVirtual()
	names, err := vs.BuildFaultList()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("empty design fault list")
	}
	for _, n := range names {
		if len(n) < 5 || n[:4] != "IP1." {
			t.Errorf("fault %q not qualified by instance name", n)
		}
	}
	svcList, _ := d.Hosts[0].Service.FaultList()
	if len(names) != len(svcList) {
		t.Errorf("union size %d != provider list size %d", len(names), len(svcList))
	}
}

// TestFigure4PropagationNarrative reproduces the paper's worked example:
// a fault excited at IP1's output (erroneous sum) is NOT detected by
// pattern ABCD=1100 because D=0 blocks propagation through O1, but IS
// detected by pattern 1101 — together with every other fault sharing the
// same erroneous output row.
func TestFigure4PropagationNarrative(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	lt := d.Hosts[0].Service.(*LocalTestability)
	dt, err := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	if err != nil {
		t.Fatal(err)
	}
	// The sum-flip row: fault-free (sum,carry)=(1,0); erroneous (0,0).
	badSum, _ := signal.ParseWord("00")
	var row DetectionRow
	for _, r := range dt.Rows {
		if r.Output.Equal(badSum) {
			row = r
		}
	}
	if row.Faults == nil {
		t.Fatal("no erroneous-sum row in detection table for (1,0)")
	}
	if len(row.Faults) < 2 {
		t.Fatalf("sum-flip row has %d faults, want several equivalent ones", len(row.Faults))
	}

	// Pattern 1100 alone: the sum-flip faults must remain undetected.
	vs := d.NewVirtual()
	res, err := vs.Run([][]signal.Bit{fig4Pattern(t, "1100")})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range row.Faults {
		if _, det := res.Detected["IP1."+f]; det {
			t.Errorf("fault %s detected by 1100; D=0 should block propagation", f)
		}
	}

	// Pattern 1101: the whole sum-flip row must be detected at once.
	d2, _ := Figure4Design()
	vs2 := d2.NewVirtual()
	res2, err := vs2.Run([][]signal.Bit{fig4Pattern(t, "1101")})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range row.Faults {
		if _, det := res2.Detected["IP1."+f]; !det {
			t.Errorf("fault %s not detected by 1101", f)
		}
	}
	if res2.Detected["IP1."+row.Faults[0]] != 0 {
		t.Error("first-detection pattern index wrong")
	}
}

func TestFigure4SameInputConfigSameTable(t *testing.T) {
	// Patterns 1100 and 1101 lead IP1 to the same input configuration
	// (1,0) — the provider must serve the same detection table (from
	// cache) and the stats must show exactly one table computation... the
	// cache is internal, so observe pointer identity via the service.
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	lt := d.Hosts[0].Service.(*LocalTestability)
	a, _ := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	vs := d.NewVirtual()
	if _, err := vs.Run([][]signal.Bit{fig4Pattern(t, "1100"), fig4Pattern(t, "1101")}); err != nil {
		t.Fatal(err)
	}
	b, _ := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	if a != b {
		t.Error("detection table recomputed for identical input configuration")
	}
	if vs.Stats.DetectionTableCalls == 0 || vs.Stats.FaultFreeRuns != 2 {
		t.Errorf("protocol stats = %+v", vs.Stats)
	}
}

// exhaustivePatterns returns all 2^n input patterns for an n-input design.
func exhaustivePatterns(n int) [][]signal.Bit {
	out := make([][]signal.Bit, 0, 1<<uint(n))
	for v := uint64(0); v < 1<<uint(n); v++ {
		p := make([]signal.Bit, n)
		for i := 0; i < n; i++ {
			if v&(1<<uint(i)) != 0 {
				p[i] = signal.B1
			}
		}
		out = append(out, p)
	}
	return out
}

// compareVirtualToFlat validates the central correctness property of the
// protocol: virtual fault simulation must reach the SAME verdict (and the
// same first-detecting pattern) as full-disclosure serial fault
// simulation of the flattened design, for every published fault. The
// qualified virtual names ("IP1.I3sa0") coincide with the flat symbols
// because component nets are embedded with the "<instance>." prefix.
func compareVirtualToFlat(t *testing.T, d *IPDesign, patterns [][]signal.Bit, vres *Result) {
	t.Helper()
	vs := d.NewVirtual()
	names, err := vs.BuildFaultList()
	if err != nil {
		t.Fatal(err)
	}
	flatFaults := make([]gate.Fault, len(names))
	for i, q := range names {
		ff, err := d.FlatFaultFor(q)
		if err != nil {
			t.Fatal(err)
		}
		flatFaults[i] = ff
	}
	fres, err := SerialSimulateFaults(d.Flat, flatFaults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range names {
		vp, vdet := vres.Detected[q]
		fp, fdet := fres.Detected[q]
		if vdet != fdet {
			t.Errorf("fault %s: virtual detected=%v flat detected=%v", q, vdet, fdet)
			continue
		}
		if vdet && vp != fp {
			t.Errorf("fault %s: first detection at pattern %d (virtual) vs %d (flat)", q, vp, fp)
		}
	}
	if len(vres.Detected) != len(fres.Detected) {
		t.Errorf("virtual detected %d faults, flat detected %d", len(vres.Detected), len(fres.Detected))
	}
}

func TestVirtualMatchesFlatFigure4(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	patterns := exhaustivePatterns(4)
	vs := d.NewVirtual()
	vres, err := vs.Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	compareVirtualToFlat(t, d, patterns, vres)
}

func TestVirtualMatchesFlatRandomDesigns(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d, err := RandomIPDesign(15, seed)
		if err != nil {
			t.Fatal(err)
		}
		patterns := exhaustivePatterns(5)
		vs := d.NewVirtual()
		vres, err := vs.Run(patterns)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compareVirtualToFlat(t, d, patterns, vres)
	}
}

func TestVirtualCoverageGrowsWithPatterns(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	vs := d.NewVirtual()
	res, err := vs.Run(exhaustivePatterns(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() <= 0 {
		t.Error("no coverage from exhaustive patterns")
	}
	curve := res.CoverageCurve()
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("virtual coverage curve not monotone")
		}
	}
}

func TestVirtualPatternArityChecked(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	vs := d.NewVirtual()
	if _, err := vs.Run([][]signal.Bit{{signal.B1}}); err == nil {
		t.Error("short pattern accepted")
	}
}

func TestVirtualMatchesFlatTwoIPDesigns(t *testing.T) {
	// Two IP components from different providers in one design, one
	// feeding the other: the protocol must compose their fault lists and
	// per-host detection tables, and still match the flattened reference
	// exactly.
	for seed := int64(1); seed <= 5; seed++ {
		d, err := RandomTwoIPDesign(12, seed)
		if err != nil {
			t.Fatal(err)
		}
		patterns := exhaustivePatterns(4)
		vs := d.NewVirtual()
		vres, err := vs.Run(patterns)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compareVirtualToFlat(t, d, patterns, vres)
		// Both hosts must have been queried.
		names, _ := vs.BuildFaultList()
		hasU1, hasU2 := false, false
		for _, n := range names {
			if len(n) > 3 && n[:3] == "U1." {
				hasU1 = true
			}
			if len(n) > 3 && n[:3] == "U2." {
				hasU2 = true
			}
		}
		if !hasU1 || !hasU2 {
			t.Fatalf("seed %d: fault list misses a host: %v", seed, names)
		}
	}
}

// bogusService returns fault names and tables that do not correspond to
// anything real — a misbehaving (or malicious) provider.
type bogusService struct{}

func (bogusService) FaultList() ([]string, error) {
	return []string{"ghost_sa0", "ghost_sa1"}, nil
}

func (bogusService) DetectionTable(inputs []signal.Bit) (*DetectionTable, error) {
	good := signal.WordFromBits([]signal.Bit{signal.B0, signal.B0})
	bad := signal.WordFromBits([]signal.Bit{signal.B1, signal.B1})
	return &DetectionTable{
		Input:     signal.WordFromBits(inputs),
		FaultFree: good,
		Rows: []DetectionRow{
			{Output: bad, Faults: []string{"ghost_sa0", "unlisted_fault"}},
		},
	}, nil
}

func TestVirtualToleratesBogusProvider(t *testing.T) {
	// A provider that fabricates detection tables can claim detections
	// for its own ghost faults (the user cannot audit them — the paper's
	// trust model accepts this), but it must never corrupt the run:
	// no panic, no error, bookkeeping stays consistent, and fault names
	// not in the published list are ignored.
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	d.Hosts[0].Service = bogusService{}
	vs := d.NewVirtual()
	res, err := vs.Run(exhaustivePatterns(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 {
		t.Errorf("total = %d, want the 2 published ghosts", res.Total)
	}
	for f := range res.Detected {
		if f != "IP1.ghost_sa0" && f != "IP1.ghost_sa1" {
			t.Errorf("unpublished fault %q reported detected", f)
		}
	}
}

func TestVirtualStatsInjectionGrouping(t *testing.T) {
	// Faults sharing a detection-table row must share one injection run
	// (the grouping optimization of the protocol).
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	vs := d.NewVirtual()
	if _, err := vs.Run([][]signal.Bit{fig4Pattern(t, "1101")}); err != nil {
		t.Fatal(err)
	}
	// The (1,0) table has 3 rows; one pattern => at most 3 injections
	// even though more than 3 faults are excited.
	if vs.Stats.InjectionRuns > 3 {
		t.Errorf("injections = %d, want <= 3 (row grouping)", vs.Stats.InjectionRuns)
	}
}

func TestVirtualFaultSimWithNestedHierarchy(t *testing.T) {
	// The IP component lives inside a nested subcircuit: the simulator
	// must elaborate through the hierarchy (Leaves) and behave exactly
	// as in the flat module arrangement.
	flatD, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	nestedD, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	// Re-wrap the nested design's modules two levels deep.
	inner := module.NewCircuit("inner", nestedD.Circuit.Children()...)
	nestedD.Circuit = module.NewCircuit("outer", inner)

	patterns := exhaustivePatterns(4)
	fres, err := flatD.NewVirtual().Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := nestedD.NewVirtual().Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Detected) != len(nres.Detected) {
		t.Fatalf("flat detected %d, nested %d", len(fres.Detected), len(nres.Detected))
	}
	for f, pi := range fres.Detected {
		if nres.Detected[f] != pi {
			t.Errorf("fault %s: flat %d, nested %d", f, pi, nres.Detected[f])
		}
	}
}

// goroutineName returns the "goroutine N" header of the calling
// goroutine's stack trace.
func goroutineName() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '['); i > 0 {
		buf = buf[:i-1]
	}
	return string(buf)
}

// checkedService runs check before every detection-table query it
// forwards.
type checkedService struct {
	TestabilityService
	check func()
}

func (s checkedService) DetectionTable(in []signal.Bit) (*DetectionTable, error) {
	s.check()
	return s.TestabilityService.DetectionTable(in)
}

// TestVirtualRunStaysOnCaller: Run does all its work on the goroutine
// that called it — every detection-table query and every simulation,
// seen through a primary output's OnValue hook.
func TestVirtualRunStaysOnCaller(t *testing.T) {
	d, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	caller := goroutineName()
	check := func(what string) {
		if g := goroutineName(); g != caller {
			t.Errorf("%s ran on %s, Run was called on %s", what, g, caller)
		}
	}
	tables, observations := 0, 0
	for _, h := range d.Hosts {
		h.Service = checkedService{h.Service, func() {
			tables++
			check("a detection-table query")
		}}
	}
	d.Outputs[0].OnValue = func(*module.Ctx, module.Observation) {
		observations++
		check("an output hook")
	}
	vs := d.NewVirtual()
	if _, err := vs.Run(exhaustivePatterns(4)); err != nil {
		t.Fatal(err)
	}
	if tables == 0 || tables != vs.Stats.DetectionTableCalls {
		t.Errorf("%d table queries seen, stats count %d", tables, vs.Stats.DetectionTableCalls)
	}
	if observations == 0 || vs.Stats.InjectionRuns == 0 {
		t.Errorf("%d output observations over %d injection runs, want both above zero", observations, vs.Stats.InjectionRuns)
	}
}

// TestVirtualRunAllocationBudget pins the allocation cost of the user's
// side of virtual fault simulation: one Run over the exhaustive
// patterns of a fault-2ip design, with the providers' detection tables
// already cached by an earlier Run. The budget is the measured level,
// 108 allocations; EXPERIMENTS.md records how it was reached.
func TestVirtualRunAllocationBudget(t *testing.T) {
	d, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	patterns := exhaustivePatterns(4)
	run := func() {
		vs := d.NewVirtual()
		if _, err := vs.Run(patterns); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the providers' table caches
	if allocs := testing.AllocsPerRun(5, run); allocs > 108 {
		t.Errorf("%.0f allocations per Run, budget 108", allocs)
	}
}

// TestRandomTwoIPDesignAllocationBudget pins the allocation cost of
// building one fault-2ip design: both components, their testability
// services, the module-level circuit and the flattened reference. The
// budget is the measured level, 244 allocations; EXPERIMENTS.md records
// how it was reached.
func TestRandomTwoIPDesignAllocationBudget(t *testing.T) {
	build := func() {
		if _, err := RandomTwoIPDesign(120, 1999); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, build); allocs > 244 {
		t.Errorf("%.0f allocations per design, budget 244", allocs)
	}
}
