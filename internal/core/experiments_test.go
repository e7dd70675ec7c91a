package core

import (
	"sort"
	"testing"

	"repro/internal/netsim"
)

func TestTable1EstimatorOrdering(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Width = 8 // keep the test fast; ordering is width-independent
	cfg.Train = 100
	cfg.Evaluate = 100
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	constant, lr, gl := rows[0], rows[1], rows[2]
	// Accuracy ordering: constant worst, regression better, gate-level
	// exact — the paper's 25/20/10 ordering.
	if !(constant.AvgErrPct > lr.AvgErrPct && lr.AvgErrPct > gl.AvgErrPct) {
		t.Errorf("error ordering violated: const %.1f, lr %.1f, gl %.1f",
			constant.AvgErrPct, lr.AvgErrPct, gl.AvgErrPct)
	}
	if constant.RMSErrPct < constant.AvgErrPct {
		t.Error("RMS error below average error")
	}
	// Cost ordering: only the gate-level estimator charges.
	if constant.CostPerPatternCents != 0 || lr.CostPerPatternCents != 0 || gl.CostPerPatternCents != 0.1 {
		t.Error("cost column wrong")
	}
	// CPU ordering: gate-level orders of magnitude slower.
	if gl.CPUPerPattern < 10*lr.CPUPerPattern {
		t.Errorf("gate-level CPU %v not ≫ regression %v", gl.CPUPerPattern, lr.CPUPerPattern)
	}
	if !gl.Remote || constant.Remote || lr.Remote {
		t.Error("remote flags wrong")
	}
}

func TestTable1ConfigValidation(t *testing.T) {
	if _, err := RunTable1(Table1Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTable2ShapeFast(t *testing.T) {
	// A scaled-down Table 2: the paper's qualitative claims must hold.
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 30
	cfg.BufferSize = 5
	rows, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(s Scenario, host string) *Result {
		for _, r := range rows {
			if r.Scenario == s && r.Host == host {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", s, host)
		return nil
	}
	al := get(AllLocal, "none")
	erWAN := get(EstimatorRemote, "WAN")
	mrWAN := get(MultiplierRemote, "WAN")
	erLocal := get(EstimatorRemote, "local")

	// Claim: real time grows with network distance for both ER and MR.
	if !(erWAN.RealTime > erLocal.RealTime) {
		t.Errorf("ER real time not growing: local %v, WAN %v", erLocal.RealTime, erWAN.RealTime)
	}
	// Claim: MR is the worst case on the WAN (most RMI calls, most real
	// time among remote rows).
	if mrWAN.RealTime < erWAN.RealTime {
		t.Errorf("MR/WAN real %v below ER/WAN %v", mrWAN.RealTime, erWAN.RealTime)
	}
	if mrWAN.Calls <= erWAN.Calls {
		t.Errorf("MR calls %d not above ER calls %d", mrWAN.Calls, erWAN.Calls)
	}
	// Claim: AL touches no network.
	if al.Calls != 0 {
		t.Error("AL made RMI calls")
	}
	// Every run simulated the full pattern set.
	for _, r := range rows {
		if r.Products == 0 {
			t.Errorf("%s/%s produced nothing", r.Scenario, r.Host)
		}
	}
}

func TestFigure3MonotoneShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 40
	points, err := RunFigure3(cfg, []int{5, 25, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Calls must fall strictly with buffer size; real time must fall too
	// (large buffers amortize the WAN round trips).
	if !(points[0].Calls > points[1].Calls && points[1].Calls > points[2].Calls) {
		t.Errorf("calls not decreasing: %d, %d, %d", points[0].Calls, points[1].Calls, points[2].Calls)
	}
	if points[2].RealTime >= points[0].RealTime {
		t.Errorf("real time not improved by buffering: %v -> %v", points[0].RealTime, points[2].RealTime)
	}
}

func TestFigure4Report(t *testing.T) {
	rep, err := RunFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FaultList) == 0 {
		t.Fatal("empty fault list")
	}
	if rep.Table == nil || len(rep.Table.Rows) == 0 {
		t.Fatal("empty detection table")
	}
	// Pattern 1101 must detect faults that 1100 did not — the paper's
	// propagation narrative.
	if len(rep.Detected1101) == 0 {
		t.Error("pattern 1101 detected nothing")
	}
	sort.Strings(rep.Detected1100)
	sort.Strings(rep.Detected1101)
	for _, f := range rep.Detected1101 {
		i := sort.SearchStrings(rep.Detected1100, f)
		if i < len(rep.Detected1100) && rep.Detected1100[i] == f {
			t.Errorf("fault %s detected by both patterns (dropping broken)", f)
		}
	}
	if rep.CoverageAfter2 <= 0 || rep.CoverageAfter2 > 1 {
		t.Errorf("coverage = %v", rep.CoverageAfter2)
	}
}

func TestTable2ParallelPreservesGridOrder(t *testing.T) {
	// The grid cells run on a worker pool; the returned rows must still
	// line up with Table2Grid() positions regardless of completion order.
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 10
	cfg.Workers = 4
	rows, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := Table2Grid()
	if len(rows) != len(grid) {
		t.Fatalf("rows = %d, want %d", len(rows), len(grid))
	}
	for i, cell := range grid {
		if rows[i] == nil {
			t.Fatalf("row %d missing", i)
		}
		if rows[i].Scenario != cell.Scenario {
			t.Errorf("row %d: scenario %v, want %v", i, rows[i].Scenario, cell.Scenario)
		}
	}
}

func TestFigure3ParallelPreservesSweepOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 20
	cfg.Workers = 4
	percents := []int{5, 25, 100}
	points, err := RunFigure3(cfg, percents)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(percents) {
		t.Fatalf("points = %d", len(points))
	}
	for i, pct := range percents {
		if points[i].BufferPct != pct {
			t.Errorf("point %d: buffer %d%%, want %d%%", i, points[i].BufferPct, pct)
		}
		if points[i].Calls == 0 {
			t.Errorf("point %d made no RMI calls", i)
		}
	}
}

func TestTable2GridComplete(t *testing.T) {
	grid := Table2Grid()
	if len(grid) != 7 {
		t.Fatalf("grid = %d cells", len(grid))
	}
	if grid[0].Scenario != AllLocal || grid[0].Profile.Name != netsim.InProcess.Name {
		t.Error("first cell must be AL")
	}
	// ER and MR must each appear on local, LAN and WAN.
	count := map[Scenario]int{}
	for _, c := range grid[1:] {
		count[c.Scenario]++
	}
	if count[EstimatorRemote] != 3 || count[MultiplierRemote] != 3 {
		t.Errorf("grid coverage = %v", count)
	}
}
