package module

import (
	"sync"
	"testing"
	"time"

	"repro/internal/estim"
	"repro/internal/signal"
)

// figure2Circuit builds the paper's Figure 2 design: two random inputs
// feeding registers feeding a multiplier, all local.
func figure2Circuit(width, patterns int, seed int64) (*Circuit, *Mult, *PrimaryOutput) {
	a := NewWordConnector("A", width)
	ar := NewWordConnector("AR", width)
	b := NewWordConnector("B", width)
	br := NewWordConnector("BR", width)
	o := NewWordConnector("O", 2*width)

	ina := NewRandomPrimaryInput("INA", width, seed, patterns, 10, a)
	rega := NewRegister("REGA", width, a, ar)
	inb := NewRandomPrimaryInput("INB", width, seed+1, patterns, 10, b)
	regb := NewRegister("REGB", width, b, br)
	mult := NewMult("MULT", width, ar, br, o)
	out := NewPrimaryOutput("OUT", 2*width, o)
	c := NewCircuit("Example", ina, rega, inb, regb, mult, out)
	return c, mult, out
}

func TestFigure2SimulationProducesProducts(t *testing.T) {
	c, _, out := figure2Circuit(16, 100, 7)
	s := NewSimulation(c)
	st := s.Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	h := out.History(st.Scheduler)
	if len(h) == 0 {
		t.Fatal("no products observed")
	}
	// Every observed value must be a known 32-bit word.
	for _, obs := range h {
		w, ok := obs.Value.(signal.WordValue)
		if !ok || w.W.Width() != 32 {
			t.Fatalf("bad product payload %v", obs.Value)
		}
	}
}

func TestEstimationDuringSimulation(t *testing.T) {
	c, mult, _ := figure2Circuit(8, 10, 1)
	mult.AddEstimator(&estim.Constant{
		Meta:  estim.Meta{Name: "const-power", Param: estim.ParamAvgPower, ErrPct: 25},
		Value: 50,
	})
	mult.AddEstimator(&estim.LinearRegression{
		Meta: estim.Meta{Name: "lr-power", Param: estim.ParamAvgPower, ErrPct: 20},
		Base: 5, Slope: 1,
	})
	setup := estim.NewSetup("s")
	setup.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})
	s := NewSimulation(c)
	st := s.Start(setup)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	agg, ok := setup.AggregateFor("MULT", estim.ParamAvgPower)
	if !ok || agg.Count == 0 {
		t.Fatal("no power estimates recorded")
	}
	// The accuracy-preferring setup must have chosen the regression.
	for _, smp := range setup.Samples() {
		if smp.Module == "MULT" && smp.Param == estim.ParamAvgPower && smp.Estimator != "lr-power" {
			t.Fatalf("estimator used = %q, want lr-power", smp.Estimator)
		}
	}
	// Modules without candidates got the null estimator plus a warning.
	if len(setup.Warnings()) == 0 {
		t.Error("expected warnings for estimator-less modules")
	}
}

func TestNullEstimatorKeepsSimulationAlive(t *testing.T) {
	c, _, out := figure2Circuit(8, 5, 2)
	setup := estim.NewSetup("null-everything")
	setup.Set(estim.ParamArea, estim.Criteria{})
	s := NewSimulation(c)
	st := s.Start(setup)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(out.History(st.Scheduler)) == 0 {
		t.Error("simulation with null estimators produced no output")
	}
	// All estimates are nulls.
	for _, smp := range setup.Samples() {
		if !smp.Value.IsNull() {
			t.Fatalf("unexpected non-null estimate %v", smp)
		}
	}
}

func TestConcurrentSetupsIndependent(t *testing.T) {
	c, mult, _ := figure2Circuit(8, 20, 3)
	mult.AddEstimator(&estim.Constant{
		Meta:  estim.Meta{Name: "const-power", Param: estim.ParamAvgPower, ErrPct: 25, CPUTime: 0},
		Value: 50,
	})
	mult.AddEstimator(&estim.LinearRegression{
		Meta: estim.Meta{Name: "lr-power", Param: estim.ParamAvgPower, ErrPct: 20, CPUTime: time.Second},
		Base: 5, Slope: 1,
	})
	fast := estim.NewSetup("fast")
	fast.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferSpeed})
	accurate := estim.NewSetup("accurate")
	accurate.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})

	s := NewSimulation(c)
	stats := s.StartConcurrent([]*estim.Setup{fast, accurate})
	for _, st := range stats {
		if st.Err != nil {
			t.Fatal(st.Err)
		}
	}
	for _, smp := range fast.Samples() {
		if smp.Module == "MULT" && smp.Estimator != "const-power" {
			t.Fatalf("fast setup used %q", smp.Estimator)
		}
	}
	for _, smp := range accurate.Samples() {
		if smp.Module == "MULT" && smp.Estimator != "lr-power" {
			t.Fatalf("accurate setup used %q", smp.Estimator)
		}
	}
	fa, _ := fast.AggregateFor("MULT", estim.ParamAvgPower)
	aa, _ := accurate.AggregateFor("MULT", estim.ParamAvgPower)
	if fa.Count == 0 || aa.Count == 0 {
		t.Fatal("concurrent setups missing estimates")
	}
	if fa.Mean() != 50 {
		t.Errorf("fast mean = %v, want constant 50", fa.Mean())
	}
}

func TestApplySetupHierarchical(t *testing.T) {
	inner := NewCircuit("inner")
	r := NewRegister("r", 4, nil, nil)
	r.AddEstimator(&estim.Constant{Meta: estim.Meta{Name: "area-r", Param: estim.ParamArea}, Value: 8})
	inner.Add(r)
	top := NewCircuit("top", inner)
	setup := estim.NewSetup("s")
	setup.Set(estim.ParamArea, estim.Criteria{})
	ApplySetup(setup, top)
	if e, ok := r.SelectedEstimator(setup, estim.ParamArea); !ok || e.EstimatorName() != "area-r" {
		t.Error("setup did not reach nested module")
	}
}

func TestEstimatorFailureRecordsNull(t *testing.T) {
	c, mult, _ := figure2Circuit(8, 3, 4)
	mult.AddEstimator(&estim.Func{
		Meta: estim.Meta{Name: "broken", Param: estim.ParamDelay},
		Fn: func(*estim.EvalContext) (estim.ParamValue, error) {
			return nil, errTest
		},
	})
	setup := estim.NewSetup("s")
	setup.Set(estim.ParamDelay, estim.Criteria{})
	s := NewSimulation(c)
	if st := s.Start(setup); st.Err != nil {
		t.Fatal(st.Err)
	}
	found := false
	for _, smp := range setup.Samples() {
		if smp.Module == "MULT" && smp.Estimator == "broken" {
			found = true
			if !smp.Value.IsNull() {
				t.Fatal("failed estimate not recorded as null")
			}
		}
	}
	if !found {
		t.Error("broken estimator never invoked")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "synthetic estimator failure" }

func TestDesignTotalAdditiveComposition(t *testing.T) {
	// Two registers with known constant areas: the design total must be
	// their sum — the local, additive metric composition rule.
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4)
	c3 := NewWordConnector("c3", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4), word(2, 4)}, 5, c1)
	r1 := NewRegister("r1", 4, c1, c2)
	r2 := NewRegister("r2", 4, c2, c3)
	out := NewPrimaryOutput("out", 4, c3)
	r1.AddEstimator(&estim.Constant{Meta: estim.Meta{Name: "a1", Param: estim.ParamArea}, Value: 10})
	r2.AddEstimator(&estim.Constant{Meta: estim.Meta{Name: "a2", Param: estim.ParamArea}, Value: 15})
	setup := estim.NewSetup("area")
	setup.Set(estim.ParamArea, estim.Criteria{})
	s := NewSimulation(NewCircuit("top", in, r1, r2, out))
	if st := s.Start(setup); st.Err != nil {
		t.Fatal(st.Err)
	}
	if got := setup.DesignTotal(estim.ParamArea); got != 25 {
		t.Errorf("design area = %v, want 25", got)
	}
}

func TestPrimaryOutputConcurrentHistories(t *testing.T) {
	c, _, out := figure2Circuit(8, 10, 9)
	s := NewSimulation(c)
	var mu sync.Mutex
	counts := map[int]int{}
	out.OnValue = func(ctx *Ctx, obs Observation) {
		mu.Lock()
		counts[int(ctx.Sim.SchedulerID())]++
		mu.Unlock()
	}
	stats := s.StartConcurrent([]*estim.Setup{nil, nil, nil})
	if len(stats) != 3 {
		t.Fatal("missing stats")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != 3 {
		t.Fatalf("outputs observed on %d schedulers, want 3", len(counts))
	}
	first := -1
	for _, n := range counts {
		if first == -1 {
			first = n
		} else if n != first {
			t.Errorf("scheduler output counts differ: %v", counts)
		}
	}
}
