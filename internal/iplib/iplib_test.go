package iplib

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/estim"
	"repro/internal/module"
)

func validSpec() ComponentSpec {
	return ComponentSpec{
		Name:          "X",
		Description:   "test",
		MinWidth:      2,
		MaxWidth:      8,
		PublicFactory: "behavioral-mult",
		Estimators: []EstimatorOffer{
			{Name: "c", Param: string(estim.ParamAvgPower), ErrPct: 30},
		},
		LicenseCents: 1,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*ComponentSpec){
		func(s *ComponentSpec) { s.Name = "" },
		func(s *ComponentSpec) { s.MinWidth = 0 },
		func(s *ComponentSpec) { s.MaxWidth = 1 },
		func(s *ComponentSpec) { s.Estimators = append(s.Estimators, s.Estimators[0]) },
		func(s *ComponentSpec) { s.Estimators[0].Param = "" },
	}
	for i, mutate := range cases {
		s := validSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestSpecOfferLookup(t *testing.T) {
	s := validSpec()
	if _, ok := s.Offer("c"); !ok {
		t.Error("existing offer not found")
	}
	if _, ok := s.Offer("z"); ok {
		t.Error("missing offer found")
	}
}

func TestEstimatorOfferTypedAccessors(t *testing.T) {
	o := EstimatorOffer{Name: "e", Param: string(estim.ParamDelay), CPUTimeMS: 1500}
	if o.Parameter() != estim.ParamDelay {
		t.Error("Parameter() wrong")
	}
	if o.CPUTime() != 1500*time.Millisecond {
		t.Errorf("CPUTime() = %v", o.CPUTime())
	}
}

func TestSpecPortDataCoversEverything(t *testing.T) {
	s := validSpec()
	pd := s.PortData()
	// Name and every estimator name must be enumerated for the policy.
	found := map[string]bool{}
	for _, v := range pd {
		if str, ok := v.(string); ok {
			found[str] = true
		}
	}
	if !found["X"] || !found["c"] {
		t.Errorf("PortData misses identity fields: %v", pd)
	}
}

func TestFactoryRegistryBuiltins(t *testing.T) {
	r := NewFactoryRegistry()
	a := module.NewWordConnector("a", 4)
	b := module.NewWordConnector("b", 4)
	o := module.NewWordConnector("o", 8)
	m, err := r.Build("behavioral-mult", "M", 4, []*module.Connector{a, b}, []*module.Connector{o})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModuleName() != "M" {
		t.Error("factory ignored instance name")
	}
	// Adder factory exists too.
	a2 := module.NewWordConnector("a2", 4)
	b2 := module.NewWordConnector("b2", 4)
	o2 := module.NewWordConnector("o2", 5)
	if _, err := r.Build("behavioral-adder", "A", 4, []*module.Connector{a2, b2}, []*module.Connector{o2}); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryRegistryErrors(t *testing.T) {
	r := NewFactoryRegistry()
	if _, err := r.Build("no-such", "X", 4, nil, nil); err == nil {
		t.Error("unknown factory accepted")
	}
	if _, err := r.Build("behavioral-mult", "X", 4, nil, nil); err == nil {
		t.Error("wrong connector shape accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register("behavioral-mult", nil)
}

func TestFactoryRegistryCustom(t *testing.T) {
	r := NewFactoryRegistry()
	r.Register("custom", func(name string, width int, ins, outs []*module.Connector) (module.Module, error) {
		return module.NewRegister(name, width, nil, nil), nil
	})
	m, err := r.Build("custom", "R", 4, nil, nil)
	if err != nil || m.ModuleName() != "R" {
		t.Errorf("custom factory failed: %v, %v", m, err)
	}
}

func TestMethodNamesDistinct(t *testing.T) {
	names := []string{
		MethodCatalogue, MethodBind, MethodEval, MethodPowerBatch,
		MethodStatic, MethodFaultList, MethodFaultTable, MethodFees,
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !strings.HasPrefix(n, "ip.") {
			t.Errorf("method %q outside the ip. namespace", n)
		}
		if seen[n] {
			t.Errorf("duplicate method name %q", n)
		}
		seen[n] = true
	}
}

// Build instantiates a public part by name.
func (r *FactoryRegistry) Build(factory, instance string, width int, ins, outs []*module.Connector) (module.Module, error) {
	f, ok := r.factories[factory]
	if !ok {
		return nil, fmt.Errorf("iplib: unknown public part %q", factory)
	}
	return f(instance, width, ins, outs)
}
