package estim

import "time"

// NewIOActivity returns the standard local estimator for the paper's
// "I/O activity" parameter: known-bit transitions across the component's
// ports per pattern, computed purely from port values (so always safe to
// ship with any component).
// Used only by tests: TestIOActivityEstimator.
func NewIOActivity(name string) *Func {
	return &Func{
		Meta: Meta{Name: name, Param: ParamIOActivity, ErrPct: 0},
		Fn: func(ec *EvalContext) (ParamValue, error) {
			return Float(float64(ec.InputToggles() + ec.OutputToggles())), nil
		},
	}
}

// NewActivityPower returns a local power model proportional to port
// activity: power = CoeffIn·(input toggles) + CoeffOut·(output toggles).
// A step up from the plain linear-regression model when a provider has
// characterized input and output capacitances separately.
// Used only by tests: TestActivityPowerEstimator.
func NewActivityPower(name string, coeffIn, coeffOut, errPct float64) *Func {
	return &Func{
		Meta: Meta{Name: name, Param: ParamAvgPower, ErrPct: errPct, CPUTime: time.Microsecond},
		Fn: func(ec *EvalContext) (ParamValue, error) {
			return Float(coeffIn*float64(ec.InputToggles()) + coeffOut*float64(ec.OutputToggles())), nil
		},
	}
}

// PeakTracker wraps any per-pattern power estimator into a peak-power
// estimator: it reports the maximum value the inner estimator has
// produced so far in this run. Because estimators are selected per setup
// and invoked once per stimulus, the running maximum is exactly the peak
// over the test sequence.
type PeakTracker struct {
	Meta
	Inner Estimator

	peak    float64
	anySeen bool
}

// NewPeakTracker builds a peak estimator over an average-power model.
// Used only by tests: TestPeakTrackerRunsMaximum.
func NewPeakTracker(name string, inner Estimator) *PeakTracker {
	return &PeakTracker{
		Meta: Meta{
			Name:    name,
			Param:   ParamPeakPower,
			ErrPct:  inner.ExpectedError(),
			Cost:    inner.CostPerCall(),
			CPUTime: inner.ExpectedCPUTime(),
			IsRem:   inner.Remote(),
		},
		Inner: inner,
	}
}

// Estimate reports the running maximum of the inner estimator.
func (p *PeakTracker) Estimate(ec *EvalContext) (ParamValue, error) {
	v, err := p.Inner.Estimate(ec)
	if err != nil {
		return nil, err
	}
	f, ok := v.(Float)
	if !ok {
		return NullValue{}, nil
	}
	if !p.anySeen || float64(f) > p.peak {
		p.peak = float64(f)
		p.anySeen = true
	}
	return Float(p.peak), nil
}
