package estim

import (
	"testing"

	"repro/internal/signal"
)

func TestIOActivityEstimator(t *testing.T) {
	e := NewIOActivity("io")
	if e.Parameter() != ParamIOActivity || e.Remote() {
		t.Error("metadata wrong")
	}
	ec := &EvalContext{
		Inputs:  []signal.Value{wv(0b11, 2)},
		PrevIn:  []signal.Value{wv(0b00, 2)},
		Outputs: []signal.Value{wv(1, 1)},
		PrevOut: []signal.Value{wv(0, 1)},
	}
	v, err := e.Estimate(ec)
	if err != nil || v.(Float) != 3 {
		t.Errorf("activity = %v, %v; want 3", v, err)
	}
}

func TestActivityPowerEstimator(t *testing.T) {
	e := NewActivityPower("ap", 2, 3, 15)
	ec := &EvalContext{
		Inputs:  []signal.Value{wv(0b11, 2)},
		PrevIn:  []signal.Value{wv(0b00, 2)},
		Outputs: []signal.Value{wv(1, 1)},
		PrevOut: []signal.Value{wv(0, 1)},
	}
	v, err := e.Estimate(ec)
	if err != nil || v.(Float) != 2*2+3*1 {
		t.Errorf("power = %v, %v; want 7", v, err)
	}
	if e.ExpectedError() != 15 {
		t.Error("error pct not propagated")
	}
}

func TestPeakTrackerRunsMaximum(t *testing.T) {
	inner := NewActivityPower("ap", 1, 0, 10)
	p := NewPeakTracker("peak", inner)
	if p.Parameter() != ParamPeakPower || p.ExpectedError() != 10 {
		t.Error("metadata not derived from inner")
	}
	step := func(prev, cur uint64) float64 {
		ec := &EvalContext{
			Inputs: []signal.Value{wv(cur, 8)},
			PrevIn: []signal.Value{wv(prev, 8)},
		}
		v, err := p.Estimate(ec)
		if err != nil {
			t.Fatal(err)
		}
		return float64(v.(Float))
	}
	if got := step(0x00, 0x0F); got != 4 {
		t.Errorf("first peak = %v", got)
	}
	if got := step(0x0F, 0x0E); got != 4 {
		t.Errorf("peak dropped: %v", got)
	}
	if got := step(0x0E, 0xF1); got != 8 { // 0x0E^0xF1 = 0xFF: 8 toggles
		t.Errorf("peak not raised: %v", got)
	}
	p.Reset()
	if got := step(0x00, 0x01); got != 1 {
		t.Errorf("peak after reset = %v", got)
	}
}

func TestPeakTrackerNonScalarInner(t *testing.T) {
	p := NewPeakTracker("peak", Null{Param: ParamAvgPower})
	v, err := p.Estimate(&EvalContext{})
	if err != nil || !v.IsNull() {
		t.Errorf("non-scalar inner: %v, %v", v, err)
	}
}

// Reset clears the running maximum between runs.
func (p *PeakTracker) Reset() { p.peak = 0; p.anySeen = false }
