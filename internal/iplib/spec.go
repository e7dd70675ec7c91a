// Package iplib defines how IP components are packaged and traded in
// gocad: the open specification an IP provider publishes (catalogue
// entries with functional-model and estimator offers — the VSIA-style
// "setup" of the paper's Figure 1), the wire protocol between JavaCAD
// clients and servers (envelopes and method names), and the client-side
// stubs a user's design environment calls.
//
// A component splits into the paper's three parts:
//
//   - the PUBLIC PART: a functional model the user downloads and runs
//     locally. Go cannot load code at runtime, so the spec names a
//     factory in the client-side FactoryRegistry — the documented
//     substitution for "loadable bytecode" (see DESIGN.md);
//   - the STUB: the typed client in this package, which invokes remote
//     methods over internal/rmi without carrying any IP;
//   - the PRIVATE PART: the gate-level netlist and accurate estimators,
//     which exist only inside internal/provider's server and whose
//     content never crosses the wire.
package iplib

import (
	"fmt"
	"time"

	"repro/internal/estim"
	"repro/internal/module"
)

// EstimatorOffer describes one estimator a provider makes available for a
// component, with the accuracy/cost/speed figures the user trades off
// during setup (the rows of the paper's Table 1).
type EstimatorOffer struct {
	Name      string
	Param     string // estim.Parameter, as a wire-friendly string
	ErrPct    float64
	CostCents float64 // per call
	CPUTimeMS float64 // expected compute time per call
	Remote    bool    // requires the provider's server (and its fees)
}

// Parameter returns the typed parameter name.
func (o EstimatorOffer) Parameter() estim.Parameter { return estim.Parameter(o.Param) }

// CPUTime returns the typed expected CPU time.
func (o EstimatorOffer) CPUTime() time.Duration {
	return time.Duration(o.CPUTimeMS * float64(time.Millisecond))
}

// ComponentSpec is a catalogue entry: everything a provider discloses
// about a component before purchase.
type ComponentSpec struct {
	// Name is the catalogue name, e.g. "MultFastLowPower".
	Name        string
	Description string
	// MinWidth and MaxWidth bound the parametric instantiation width.
	MinWidth, MaxWidth int
	// PublicFactory names the functional model in the client-side
	// FactoryRegistry (the downloadable public part).
	PublicFactory string
	// Estimators are the offered cost-metric models.
	Estimators []EstimatorOffer
	// Testability reports whether the provider answers virtual
	// fault-simulation queries for this component.
	Testability bool
	// LicenseCents is the one-time fee charged at instantiation.
	LicenseCents float64
}

// PortData implements rmi.PortData: a spec is pure catalogue metadata.
func (s ComponentSpec) PortData() []any {
	out := []any{s.Name, s.Description, s.MinWidth, s.MaxWidth,
		s.PublicFactory, s.Testability, s.LicenseCents}
	for _, e := range s.Estimators {
		out = append(out, e.Name, e.Param, e.ErrPct, e.CostCents, e.CPUTimeMS, e.Remote)
	}
	return out
}

// Validate checks the spec for obvious inconsistencies.
func (s ComponentSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("iplib: spec without name")
	}
	if s.MinWidth <= 0 || s.MaxWidth < s.MinWidth {
		return fmt.Errorf("iplib: %s: invalid width range [%d, %d]", s.Name, s.MinWidth, s.MaxWidth)
	}
	seen := map[string]bool{}
	for _, e := range s.Estimators {
		if seen[e.Name] {
			return fmt.Errorf("iplib: %s: duplicate estimator %q", s.Name, e.Name)
		}
		seen[e.Name] = true
		if e.Param == "" {
			return fmt.Errorf("iplib: %s: estimator %q without parameter", s.Name, e.Name)
		}
	}
	return nil
}

// Offer returns the estimator offer with the given name.
func (s ComponentSpec) Offer(name string) (EstimatorOffer, bool) {
	for _, e := range s.Estimators {
		if e.Name == name {
			return e, true
		}
	}
	return EstimatorOffer{}, false
}

// Factory builds a local functional model (the public part) with the
// given instance name and width over the given connectors.
type Factory func(name string, width int, ins, outs []*module.Connector) (module.Module, error)

// FactoryRegistry maps public-part names to local factories — the
// client-side stand-in for bytecode download.
type FactoryRegistry struct {
	factories map[string]Factory
}

// NewFactoryRegistry returns a registry preloaded with the standard
// gocad functional models.
// Used only by tests: TestFactoryRegistryBuiltins.
func NewFactoryRegistry() *FactoryRegistry {
	r := &FactoryRegistry{factories: make(map[string]Factory)}
	r.Register("behavioral-mult", func(name string, width int, ins, outs []*module.Connector) (module.Module, error) {
		if len(ins) != 2 || len(outs) != 1 {
			return nil, fmt.Errorf("iplib: behavioral-mult needs 2 inputs and 1 output")
		}
		return module.NewMult(name, width, ins[0], ins[1], outs[0]), nil
	})
	r.Register("behavioral-adder", func(name string, width int, ins, outs []*module.Connector) (module.Module, error) {
		if len(ins) != 2 || len(outs) != 1 {
			return nil, fmt.Errorf("iplib: behavioral-adder needs 2 inputs and 1 output")
		}
		return module.NewAdder(name, width, ins[0], ins[1], outs[0]), nil
	})
	return r
}

// Register adds a factory under a public-part name.
func (r *FactoryRegistry) Register(name string, f Factory) {
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("iplib: duplicate factory %q", name))
	}
	r.factories[name] = f
}
