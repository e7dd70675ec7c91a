package estim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Preference orders admissible candidate estimators.
type Preference int

// Selection preferences: most accurate first, cheapest first, or fastest
// first.
const (
	PreferAccuracy Preference = iota
	PreferCost
	PreferSpeed
)

// Criteria specifies how to choose the estimator for a given parameter —
// the argument of the paper's set(<param>, <criteria>) setup method.
// Zero-valued constraint fields mean "unconstrained".
type Criteria struct {
	// Name, when nonempty, demands the estimator with this exact name.
	Name string
	// MaxError admits only estimators whose declared expected error (in
	// percent) does not exceed this bound. Zero means unconstrained.
	MaxError float64
	// MaxCostPerCall admits only estimators whose per-call fee (in cents)
	// does not exceed this bound. Negative means "free only"; zero means
	// unconstrained.
	MaxCostPerCall float64
	// MaxCPUTime admits only estimators whose declared compute time does
	// not exceed this bound. Zero means unconstrained.
	MaxCPUTime time.Duration
	// ForbidRemote rejects estimators that must run on the provider's
	// server across the network.
	ForbidRemote bool
	// Prefer breaks ties among admissible candidates.
	Prefer Preference
}

// admits reports whether e satisfies the constraints.
func (c Criteria) admits(e Estimator) bool {
	if c.Name != "" && e.EstimatorName() != c.Name {
		return false
	}
	if c.MaxError > 0 && e.ExpectedError() > c.MaxError {
		return false
	}
	if c.MaxCostPerCall < 0 && e.CostPerCall() > 0 {
		return false
	}
	if c.MaxCostPerCall > 0 && e.CostPerCall() > c.MaxCostPerCall {
		return false
	}
	if c.MaxCPUTime > 0 && e.ExpectedCPUTime() > c.MaxCPUTime {
		return false
	}
	if c.ForbidRemote && e.Remote() {
		return false
	}
	return true
}

// better reports whether a should be preferred over b under the criteria.
func (c Criteria) better(a, b Estimator) bool {
	switch c.Prefer {
	case PreferCost:
		if a.CostPerCall() != b.CostPerCall() {
			return a.CostPerCall() < b.CostPerCall()
		}
	case PreferSpeed:
		if a.ExpectedCPUTime() != b.ExpectedCPUTime() {
			return a.ExpectedCPUTime() < b.ExpectedCPUTime()
		}
	}
	if a.ExpectedError() != b.ExpectedError() {
		return a.ExpectedError() < b.ExpectedError()
	}
	// Final deterministic tie-break by name.
	return a.EstimatorName() < b.EstimatorName()
}

// Component is the estimation-facing view of a design module: it exposes
// its candidate estimators and accepts the selection the setup controller
// makes for it. internal/module's Skeleton implements it.
type Component interface {
	ModuleName() string
	// Candidates returns the estimators registered for the parameter.
	Candidates(p Parameter) []Estimator
	// SelectEstimator stores the setup's chosen estimator in the
	// component's per-setup estimator table.
	SelectEstimator(s *Setup, p Parameter, e Estimator)
}

// Warning records a setup requirement that could not be satisfied for a
// component; the null estimator was associated instead.
type Warning struct {
	Module string
	Param  Parameter
	Reason string
}

func (w Warning) String() string {
	return fmt.Sprintf("setup: %s.%s: %s; using null estimator", w.Module, w.Param, w.Reason)
}

// Setup is the setup controller: it maps parameters to selection
// criteria, applies itself to modules, and — during simulation — collects
// every produced estimate together with the fees charged for remote
// estimator use. A Setup passes to the simulation controller at
// instantiation and then travels with every simulation token, which is
// how modules retrieve their selected estimators at runtime. Distinct
// Setups over the same design are fully independent, enabling concurrent
// simulations with different estimation configurations.
type Setup struct {
	name     string
	criteria map[Parameter]Criteria

	mu       sync.Mutex
	samples  []Sample
	agg      map[aggKey]*Aggregate
	warnings []Warning
	degraded map[aggKey]bool // (module, param) pairs that degraded
}

type aggKey struct {
	module string
	param  Parameter
}

// Aggregate summarizes the scalar samples of one (module, parameter).
type Aggregate struct {
	Count     int
	Sum       float64
	Min       float64
	Max       float64
	NullCount int // samples produced by the null estimator
}

// Mean returns the average of the recorded scalar samples.
func (a *Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// NewSetup returns an empty setup controller with the given display name.
func NewSetup(name string) *Setup {
	return &Setup{
		name:     name,
		criteria: make(map[Parameter]Criteria),
		agg:      make(map[aggKey]*Aggregate),
	}
}

// Name returns the setup's display name.
func (s *Setup) Name() string { return s.name }

// Set specifies the criteria for choosing the estimator for a parameter —
// the paper's set(<param>, <criteria>).
func (s *Setup) Set(p Parameter, c Criteria) { s.criteria[p] = c }

// SelectFor chooses, for every requested parameter, the best admissible
// candidate estimator of the component and stores the selection in the
// component's per-setup table. When no candidate satisfies the criteria a
// warning is recorded and the default null estimator is associated with
// the parameter. The hierarchical walk over submodules is performed by
// the module package's Apply helper.
func (s *Setup) SelectFor(c Component) {
	for p, crit := range s.criteria {
		var best Estimator
		for _, cand := range c.Candidates(p) {
			if !crit.admits(cand) {
				continue
			}
			if best == nil || crit.better(cand, best) {
				best = cand
			}
		}
		if best == nil {
			reason := "no admissible estimator"
			if len(c.Candidates(p)) == 0 {
				reason = "no candidate estimator"
			}
			s.warn(Warning{Module: c.ModuleName(), Param: p, Reason: reason})
			best = Null{Param: p}
		}
		c.SelectEstimator(s, p, best)
	}
}

func (s *Setup) warn(w Warning) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.warnings = append(s.warnings, w)
}

// Warnings returns the setup warnings accumulated so far.
func (s *Setup) Warnings() []Warning {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Warning(nil), s.warnings...)
}

// MarkDegraded records that a component's estimation of p fell back to a
// degraded estimator mid-simulation — the graceful-degradation path when
// an IP provider is declared dead: the run completes with partial
// estimates (the paper's null-estimator philosophy) instead of aborting.
// The first report per (module, parameter) is also recorded as a
// warning; repeats are ignored.
func (s *Setup) MarkDegraded(module string, p Parameter, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := aggKey{module: module, param: p}
	if s.degraded == nil {
		s.degraded = make(map[aggKey]bool)
	}
	if s.degraded[k] {
		return
	}
	s.degraded[k] = true
	s.warnings = append(s.warnings, Warning{Module: module, Param: p, Reason: reason})
}

// Degraded reports whether any component's estimation degraded during
// the run.
// Used only by tests: TestSetupMarkDegraded.
func (s *Setup) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.degraded) > 0
}

// Record appends one produced estimate, charging the estimator's fee.
// Modules call it when they handle an estimation token.
func (s *Setup) Record(module string, p Parameter, now int64, v ParamValue, e Estimator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, Sample{
		Module: module, Param: p, Time: now, Value: v,
		Estimator: e.EstimatorName(), Fee: e.CostPerCall(),
	})
	k := aggKey{module: module, param: p}
	a := s.agg[k]
	if a == nil {
		a = &Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
		s.agg[k] = a
	}
	if v.IsNull() {
		a.NullCount++
		return
	}
	if f, ok := v.(Float); ok {
		a.Count++
		a.Sum += float64(f)
		if float64(f) < a.Min {
			a.Min = float64(f)
		}
		if float64(f) > a.Max {
			a.Max = float64(f)
		}
	}
}

// Samples returns a copy of every recorded estimate, in recording order.
// Used only by tests: TestSetupRecordAggregatesAndFees, TestEstimationDuringSimulation.
func (s *Setup) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// AggregateFor returns the scalar aggregate for one (module, parameter).
func (s *Setup) AggregateFor(module string, p Parameter) (Aggregate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agg[aggKey{module: module, param: p}]
	if !ok {
		return Aggregate{}, false
	}
	return *a, true
}

// DesignTotal sums the mean values of a parameter across all modules —
// the composition rule for local, additive cost metrics ("users can sum
// these to obtain global design metrics").
func (s *Setup) DesignTotal(p Parameter) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for k, a := range s.agg {
		if k.param == p && a.Count > 0 {
			total += a.Sum / float64(a.Count)
		}
	}
	return total
}
