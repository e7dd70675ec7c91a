// Package estim implements gocad's cost-metric estimation framework: the
// JFP estimation package of the paper. Cost and performance metrics —
// area, propagation delay, average power, peak power, I/O activity — are
// called parameters. An estimator evaluates a parameter's actual value;
// it has a unique name, an expected accuracy, a monetary cost, and an
// expected CPU time, so that users can trade accuracy against cost and
// speed. A given design component can register several candidate
// estimators for the same parameter; a Setup controller selects among
// them by user criteria, falling back to the null estimator (with a
// warning) when no candidate satisfies the request.
package estim

import (
	"fmt"
	"strconv"
)

// Parameter names a cost or performance metric. The predefined names
// cover the metrics the programs estimate; components and providers may
// define their own (e.g. the fault package's detection-table parameter).
type Parameter string

// Predefined parameters.
const (
	ParamArea     Parameter = "area"      // silicon area, in equivalent gates
	ParamDelay    Parameter = "delay"     // propagation delay, in time units
	ParamAvgPower Parameter = "power.avg" // average power per pattern, in µW
)

// ParamValue is the value an estimator produces. The common case is a
// scalar Float; structured values (the fault package's DetectionTable)
// implement the same interface.
type ParamValue interface {
	// ParamString renders the value for reports.
	ParamString() string
	// IsNull reports whether this is the null value produced by the
	// default null estimator, so partial estimates can be filtered.
	IsNull() bool
}

// Float is a scalar parameter value.
type Float float64

// ParamString formats the scalar with a compact precision.
func (f Float) ParamString() string { return strconv.FormatFloat(float64(f), 'g', 6, 64) }

// IsNull reports false: a Float is always a real estimate.
func (f Float) IsNull() bool { return false }

// NullValue is the "proper null value" returned by the null estimator.
// It lets a design simulate even when some modules have no estimator for
// a requested parameter, and makes partial estimates trivially filterable.
type NullValue struct{}

// ParamString renders the null marker.
func (NullValue) ParamString() string { return "null" }

// IsNull reports true.
func (NullValue) IsNull() bool { return true }

// Sample is one recorded estimate: which module, which parameter, when,
// produced by which estimator, at what fee.
type Sample struct {
	Module    string
	Param     Parameter
	Time      int64
	Value     ParamValue
	Estimator string
	Fee       float64 // cents charged for this call
}

func (s Sample) String() string {
	return fmt.Sprintf("%s.%s@%d = %s (%s)", s.Module, s.Param, s.Time, s.Value.ParamString(), s.Estimator)
}
