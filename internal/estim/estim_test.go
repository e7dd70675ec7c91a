package estim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/signal"
)

func wv(v uint64, width int) signal.Value {
	return signal.WordValue{W: signal.WordFromUint64(v, width)}
}

func TestFloatParamValue(t *testing.T) {
	var v ParamValue = Float(2.5)
	if v.IsNull() {
		t.Error("Float reported null")
	}
	if v.ParamString() != "2.5" {
		t.Errorf("ParamString = %q", v.ParamString())
	}
}

func TestNullValue(t *testing.T) {
	var v ParamValue = NullValue{}
	if !v.IsNull() || v.ParamString() != "null" {
		t.Error("NullValue basics wrong")
	}
}

func TestSampleString(t *testing.T) {
	s := Sample{Module: "m", Param: ParamArea, Time: 3, Value: Float(1), Estimator: "const"}
	if !strings.Contains(s.String(), "m.area@3") {
		t.Errorf("Sample.String = %q", s.String())
	}
}

func TestEvalContextToggles(t *testing.T) {
	ec := &EvalContext{
		Inputs: []signal.Value{wv(0b1010, 4), wv(1, 1)},
		PrevIn: []signal.Value{wv(0b0110, 4), wv(0, 1)},
	}
	// 1010 vs 0110: bits 2 and 3 differ -> 2 toggles; 1 vs 0 -> 1 toggle.
	if got := ec.InputToggles(); got != 3 {
		t.Errorf("InputToggles = %d, want 3", got)
	}
}

func TestEvalContextTogglesBitValues(t *testing.T) {
	ec := &EvalContext{
		Inputs: []signal.Value{signal.BitValue{B: signal.B1}, signal.BitValue{B: signal.BX}},
		PrevIn: []signal.Value{signal.BitValue{B: signal.B0}, signal.BitValue{B: signal.B1}},
	}
	if got := ec.InputToggles(); got != 1 {
		t.Errorf("bit toggles = %d, want 1 (X transition must not count)", got)
	}
}

func TestEvalContextTogglesNilSafe(t *testing.T) {
	ec := &EvalContext{
		Inputs: []signal.Value{nil, wv(1, 1)},
		PrevIn: []signal.Value{wv(0, 1)},
	}
	if got := ec.InputToggles(); got != 0 {
		t.Errorf("toggles with nil/short prev = %d, want 0", got)
	}
}

func TestConstantEstimator(t *testing.T) {
	c := &Constant{Meta: Meta{Name: "const", Param: ParamAvgPower, ErrPct: 90}, Value: 42}
	v, err := c.Estimate(&EvalContext{})
	if err != nil || v.(Float) != 42 {
		t.Errorf("constant estimate = %v, %v", v, err)
	}
	if c.EstimatorName() != "const" || c.Parameter() != ParamAvgPower || c.ExpectedError() != 90 {
		t.Error("Meta accessors wrong")
	}
}

func TestLinearRegressionEstimator(t *testing.T) {
	l := &LinearRegression{Meta: Meta{Name: "lr", Param: ParamAvgPower}, Base: 10, Slope: 2}
	ec := &EvalContext{
		Inputs: []signal.Value{wv(0b11, 2)},
		PrevIn: []signal.Value{wv(0b00, 2)},
	}
	v, err := l.Estimate(ec)
	if err != nil || v.(Float) != 14 {
		t.Errorf("regression estimate = %v, %v; want 14", v, err)
	}
}

func TestNullEstimator(t *testing.T) {
	n := Null{Param: ParamArea}
	if n.EstimatorName() != "null" || n.Parameter() != ParamArea {
		t.Error("Null identity wrong")
	}
	v, err := n.Estimate(nil)
	if err != nil || !v.IsNull() {
		t.Error("Null estimate wrong")
	}
	if n.Remote() || n.CostPerCall() != 0 || n.ExpectedCPUTime() != 0 {
		t.Error("Null metadata wrong")
	}
}

func TestFuncEstimator(t *testing.T) {
	f := &Func{
		Meta: Meta{Name: "f", Param: ParamDelay},
		Fn:   func(ec *EvalContext) (ParamValue, error) { return Float(float64(ec.Now)), nil },
	}
	v, err := f.Estimate(&EvalContext{Now: 7})
	if err != nil || v.(Float) != 7 {
		t.Errorf("func estimate = %v, %v", v, err)
	}
}

// fakeComponent implements Component for setup-selection tests.
type fakeComponent struct {
	name       string
	candidates map[Parameter][]Estimator
	selected   map[Parameter]Estimator
}

func newFakeComponent(name string) *fakeComponent {
	return &fakeComponent{
		name:       name,
		candidates: make(map[Parameter][]Estimator),
		selected:   make(map[Parameter]Estimator),
	}
}

func (f *fakeComponent) ModuleName() string                 { return f.name }
func (f *fakeComponent) Candidates(p Parameter) []Estimator { return f.candidates[p] }
func (f *fakeComponent) SelectEstimator(s *Setup, p Parameter, e Estimator) {
	f.selected[p] = e
}
func (f *fakeComponent) EstimationParams() []Parameter {
	var ps []Parameter
	for p := range f.candidates {
		ps = append(ps, p)
	}
	return ps
}

// table1Estimators builds the three power estimators of the paper's
// Table 1: constant (25%% err, free, fast), linear regression (20%% err,
// free), gate-level (10%% err, 0.1 cents, 100s, remote).
func table1Estimators() []Estimator {
	return []Estimator{
		&Constant{Meta: Meta{Name: "constant", Param: ParamAvgPower, ErrPct: 25, Cost: 0, CPUTime: 0}, Value: 50},
		&LinearRegression{Meta: Meta{Name: "linear-regression", Param: ParamAvgPower, ErrPct: 20, Cost: 0, CPUTime: time.Second}, Base: 10, Slope: 2},
		&Func{
			Meta: Meta{Name: "gate-level-toggle-count", Param: ParamAvgPower, ErrPct: 10, Cost: 0.1, CPUTime: 100 * time.Second, IsRem: true},
			Fn:   func(*EvalContext) (ParamValue, error) { return Float(48), nil },
		},
	}
}

func TestSetupSelectsMostAccurate(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("accuracy")
	s.Set(ParamAvgPower, Criteria{Prefer: PreferAccuracy})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "gate-level-toggle-count" {
		t.Errorf("selected %q, want gate-level-toggle-count", got)
	}
	if len(s.Warnings()) != 0 {
		t.Errorf("unexpected warnings: %v", s.Warnings())
	}
}

func TestSetupForbidRemoteFallsBackToRegression(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("local-only")
	s.Set(ParamAvgPower, Criteria{Prefer: PreferAccuracy, ForbidRemote: true})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "linear-regression" {
		t.Errorf("selected %q, want linear-regression", got)
	}
}

func TestSetupFreeOnlyCriteria(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("free")
	s.Set(ParamAvgPower, Criteria{Prefer: PreferAccuracy, MaxCostPerCall: -1})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "linear-regression" {
		t.Errorf("selected %q, want linear-regression", got)
	}
}

func TestSetupPreferSpeed(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("fast")
	s.Set(ParamAvgPower, Criteria{Prefer: PreferSpeed})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "constant" {
		t.Errorf("selected %q, want constant", got)
	}
}

func TestSetupByExactName(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("named")
	s.Set(ParamAvgPower, Criteria{Name: "constant"})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "constant" {
		t.Errorf("selected %q, want constant", got)
	}
}

func TestSetupUnsatisfiableYieldsNullAndWarning(t *testing.T) {
	c := newFakeComponent("reg")
	// No candidates at all for area.
	s := NewSetup("w")
	s.Set(ParamArea, Criteria{})
	s.SelectFor(c)
	if got := c.selected[ParamArea]; got.EstimatorName() != "null" {
		t.Errorf("selected %q, want null", got.EstimatorName())
	}
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Module != "reg" || ws[0].Param != ParamArea {
		t.Errorf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].String(), "null estimator") {
		t.Errorf("warning text = %q", ws[0].String())
	}
}

func TestSetupOverConstrainedYieldsNull(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("impossible")
	s.Set(ParamAvgPower, Criteria{MaxError: 5}) // nothing better than 10%
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower]; got.EstimatorName() != "null" {
		t.Errorf("selected %q, want null", got.EstimatorName())
	}
}

func TestSetupMaxCPUTime(t *testing.T) {
	c := newFakeComponent("mult")
	c.candidates[ParamAvgPower] = table1Estimators()
	s := NewSetup("cpu-bound")
	s.Set(ParamAvgPower, Criteria{MaxCPUTime: 2 * time.Second, Prefer: PreferAccuracy})
	s.SelectFor(c)
	if got := c.selected[ParamAvgPower].EstimatorName(); got != "linear-regression" {
		t.Errorf("selected %q, want linear-regression", got)
	}
}

func TestSetupRecordAggregatesAndFees(t *testing.T) {
	s := NewSetup("r")
	gl := table1Estimators()[2]
	for i, v := range []float64{10, 20, 30} {
		s.Record("mult", ParamAvgPower, int64(i), Float(v), gl)
	}
	a, ok := s.AggregateFor("mult", ParamAvgPower)
	if !ok {
		t.Fatal("no aggregate")
	}
	if a.Count != 3 || a.Mean() != 20 || a.Min != 10 || a.Max != 30 {
		t.Errorf("aggregate = %+v", a)
	}
	fees := 0.0
	for _, smp := range s.Samples() {
		if smp.Estimator == "gate-level-toggle-count" {
			fees += smp.Fee
		}
	}
	if fees < 0.299 || fees > 0.301 {
		t.Errorf("fees = %v, want 0.3", fees)
	}
	if len(s.Samples()) != 3 {
		t.Errorf("samples = %d", len(s.Samples()))
	}
}

func TestSetupRecordNullDoesNotPolluteAggregates(t *testing.T) {
	s := NewSetup("n")
	n := Null{Param: ParamArea}
	s.Record("m", ParamArea, 0, NullValue{}, n)
	s.Record("m", ParamArea, 1, Float(4), &Constant{Meta: Meta{Name: "c", Param: ParamArea}, Value: 4})
	a, _ := s.AggregateFor("m", ParamArea)
	if a.Count != 1 || a.NullCount != 1 || a.Mean() != 4 {
		t.Errorf("aggregate = %+v", a)
	}
}

func TestSetupDesignTotal(t *testing.T) {
	s := NewSetup("total")
	c := &Constant{Meta: Meta{Name: "c", Param: ParamArea}}
	s.Record("a", ParamArea, 0, Float(100), c)
	s.Record("b", ParamArea, 0, Float(50), c)
	s.Record("b", ParamArea, 1, Float(70), c)
	// a mean 100, b mean 60 -> total 160.
	if got := s.DesignTotal(ParamArea); got != 160 {
		t.Errorf("DesignTotal = %v, want 160", got)
	}
}

func TestSetupCriteriaLookup(t *testing.T) {
	s := NewSetup("p")
	s.Set(ParamDelay, Criteria{})
	s.Set(ParamArea, Criteria{})
	if _, ok := s.Criteria(ParamArea); !ok {
		t.Error("Criteria lookup failed")
	}
	if _, ok := s.Criteria(ParamAvgPower); ok {
		t.Error("Criteria lookup found unset param")
	}
}

func TestCriteriaSelectionIsDeterministicProperty(t *testing.T) {
	// Selection must be order-independent: shuffling the candidate list
	// never changes the chosen estimator.
	f := func(seed int64) bool {
		ests := table1Estimators()
		// Rotate by seed to vary order.
		k := int(uint64(seed) % uint64(len(ests)))
		rot := append(append([]Estimator(nil), ests[k:]...), ests[:k]...)
		pick := func(cands []Estimator) string {
			c := newFakeComponent("m")
			c.candidates[ParamAvgPower] = cands
			s := NewSetup("s")
			s.Set(ParamAvgPower, Criteria{Prefer: PreferAccuracy})
			s.SelectFor(c)
			return c.selected[ParamAvgPower].EstimatorName()
		}
		return pick(ests) == pick(rot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Criteria returns the criteria registered for p, if any.
func (s *Setup) Criteria(p Parameter) (Criteria, bool) {
	c, ok := s.criteria[p]
	return c, ok
}
