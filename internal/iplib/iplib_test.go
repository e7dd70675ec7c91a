package iplib

import (
	"strings"
	"testing"
	"time"

	"repro/internal/estim"
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
