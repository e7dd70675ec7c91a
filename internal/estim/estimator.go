package estim

import (
	"time"

	"repro/internal/signal"
)

// EvalContext is everything an estimator may look at when producing a
// value: the component's identity and its current and previous input
// port values. This is deliberately the complete list — estimation is a
// local, additive property evaluated from information available at the
// module's own ports, which is exactly the IP-protection boundary the
// paper enforces: a remote estimator never sees the other modules
// instantiated in the design, their properties, or their mutual
// relationships.
//
// The context and its slices are valid only for the duration of one
// Estimate call: the module skeleton rebuilds them in place per
// estimation round, so estimators must copy anything they keep.
type EvalContext struct {
	Module string
	Now    int64
	Inputs []signal.Value // current value on each input port (nil if never driven)
	PrevIn []signal.Value // previous value on each input port
}

// InputToggles counts known-bit transitions across all input ports — the
// switching activity that drives dynamic power.
func (ec *EvalContext) InputToggles() int {
	cur, prev := ec.Inputs, ec.PrevIn
	n := 0
	for i := range cur {
		if i >= len(prev) || cur[i] == nil || prev[i] == nil {
			continue
		}
		switch c := cur[i].(type) {
		case signal.BitValue:
			if p, ok := prev[i].(signal.BitValue); ok &&
				c.B.Known() && p.B.Known() && c.B != p.B {
				n++
			}
		case signal.WordValue:
			if p, ok := prev[i].(signal.WordValue); ok {
				n += c.W.ToggleCount(p.W)
			}
		}
	}
	return n
}

// Estimator evaluates one parameter of one component. Estimators have a
// unique name, an expected accuracy, a cost, and an expected CPU time;
// they can be local (running on the user's client) or remote (running on
// the provider's server, typically because they need IP-protected
// implementation knowledge such as the gate-level netlist).
type Estimator interface {
	// EstimatorName uniquely identifies the estimator in reports and
	// setup criteria.
	EstimatorName() string
	// Parameter is the metric this estimator evaluates.
	Parameter() Parameter
	// ExpectedError is the estimator's declared expected relative error,
	// in percent (lower is more accurate).
	ExpectedError() float64
	// CostPerCall is the fee, in cents, charged per invocation.
	CostPerCall() float64
	// ExpectedCPUTime is the declared compute time per invocation.
	ExpectedCPUTime() time.Duration
	// Remote reports whether invoking the estimator crosses the network
	// to the IP provider's server (a flag the paper surfaces to warn the
	// designer about unpredictable additional latency).
	Remote() bool
	// Estimate produces the parameter value for the current context.
	Estimate(ec *EvalContext) (ParamValue, error)
}

// Meta carries the descriptive fields shared by every estimator; embed it
// and provide Estimate.
type Meta struct {
	Name    string
	Param   Parameter
	ErrPct  float64
	Cost    float64
	CPUTime time.Duration
	IsRem   bool
}

// EstimatorName returns the unique name.
func (m Meta) EstimatorName() string { return m.Name }

// Parameter returns the estimated metric.
func (m Meta) Parameter() Parameter { return m.Param }

// ExpectedError returns the declared expected error, in percent.
func (m Meta) ExpectedError() float64 { return m.ErrPct }

// CostPerCall returns the per-invocation fee in cents.
func (m Meta) CostPerCall() float64 { return m.Cost }

// ExpectedCPUTime returns the declared compute time per invocation.
func (m Meta) ExpectedCPUTime() time.Duration { return m.CPUTime }

// Remote reports whether the estimator runs on the provider's server.
func (m Meta) Remote() bool { return m.IsRem }

// Func adapts a plain function to the Estimator interface.
type Func struct {
	Meta
	Fn func(ec *EvalContext) (ParamValue, error)
}

// Estimate invokes the wrapped function.
func (f *Func) Estimate(ec *EvalContext) (ParamValue, error) { return f.Fn(ec) }

// Null is the default estimator associated with a parameter when setup
// requirements cannot be satisfied: it always returns the proper null
// value, enabling partial estimates and simulation of designs with
// missing estimators.
type Null struct{ Param Parameter }

// EstimatorName returns the reserved name "null".
func (n Null) EstimatorName() string { return "null" }

// Parameter returns the parameter the null estimator stands in for.
func (n Null) Parameter() Parameter { return n.Param }

// ExpectedError is meaningless for the null estimator; it reports 100.
func (n Null) ExpectedError() float64 { return 100 }

// CostPerCall is zero.
func (n Null) CostPerCall() float64 { return 0 }

// ExpectedCPUTime is zero.
func (n Null) ExpectedCPUTime() time.Duration { return 0 }

// Remote reports false.
func (n Null) Remote() bool { return false }

// Estimate returns the null value.
func (n Null) Estimate(*EvalContext) (ParamValue, error) { return NullValue{}, nil }

// Constant is the simplest data-sheet estimator: a precharacterized fixed
// value, independent of activity — row one of the paper's Table 1.
type Constant struct {
	Meta
	Value float64
}

// Estimate returns the precharacterized constant.
func (c *Constant) Estimate(*EvalContext) (ParamValue, error) { return Float(c.Value), nil }

// LinearRegression is the paper's second Table 1 estimator: a
// precharacterized affine model of input switching activity,
// value = Base + Slope × (input toggles). It needs only port values, so a
// provider can release it with the component's functional description.
type LinearRegression struct {
	Meta
	Base  float64
	Slope float64
}

// Estimate applies the regression to the current input activity.
func (l *LinearRegression) Estimate(ec *EvalContext) (ParamValue, error) {
	return Float(l.Base + l.Slope*float64(ec.InputToggles())), nil
}
