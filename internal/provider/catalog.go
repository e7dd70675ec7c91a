package provider

import (
	"fmt"
	"sync"

	"repro/internal/estim"
	"repro/internal/gate"
	"repro/internal/iplib"
)

// canonicalNetlists memoizes the catalogue components' gate-level
// implementations per (component, width), process-wide. Netlist
// construction for the array multiplier plus levelization is a large
// slice of cold bind cost, and short-lived providers (one per scenario
// run, one per benchmark iteration) never warm a per-Provider cache —
// so the catalogue itself hands out one canonical, pre-built netlist
// per shape. Every consumer treats built netlists as read-only, and
// sharing by pointer identity is what lets the provider's testability
// cache key by *gate.Netlist.
var canonicalNetlists sync.Map // catalogShape → *gate.Netlist

// catalogShape identifies one canonical catalogue netlist.
type catalogShape struct {
	component string
	width     int
}

// canonicalNetlist returns the memoized netlist for a catalogue shape,
// building and pre-levelizing it on first use. Build is completed
// before the netlist is published because Netlist.Build memoizes into
// the netlist and must not race; LoadOrStore keeps the first insert so
// concurrent first binds converge on one instance.
func canonicalNetlist(component string, width int, build func() *gate.Netlist) (*gate.Netlist, error) {
	key := catalogShape{component: component, width: width}
	if v, ok := canonicalNetlists.Load(key); ok {
		return v.(*gate.Netlist), nil
	}
	nl := build()
	if err := nl.Build(); err != nil {
		return nil, err
	}
	v, _ := canonicalNetlists.LoadOrStore(key, nl)
	return v.(*gate.Netlist), nil
}

// MultFastLowPower returns the paper's example IP component: the
// high-performance, low-power multiplier sold by provider 1, with the
// three power estimators of Table 1 (constant, linear regression, and
// the remote gate-level toggle count at 0.1 cents per pattern).
func MultFastLowPower() *Component {
	return &Component{
		Spec: iplib.ComponentSpec{
			Name:          "MultFastLowPower",
			Description:   "high-performance low-power parametric multiplier",
			MinWidth:      2,
			MaxWidth:      32,
			PublicFactory: "behavioral-mult",
			Estimators: []iplib.EstimatorOffer{
				{Name: "constant", Param: string(estim.ParamAvgPower), ErrPct: 25, CostCents: 0, CPUTimeMS: 0, Remote: false},
				{Name: "datasheet-delay", Param: string(estim.ParamDelay), ErrPct: 30, CostCents: 0, CPUTimeMS: 0, Remote: false},
				{Name: "gate-level-timing", Param: string(estim.ParamDelay), ErrPct: 5, CostCents: 0.05, CPUTimeMS: 50_000, Remote: true},
				{Name: "linear-regression", Param: string(estim.ParamAvgPower), ErrPct: 20, CostCents: 0, CPUTimeMS: 1000, Remote: false},
				{Name: "gate-level-toggle-count", Param: string(estim.ParamAvgPower), ErrPct: 10, CostCents: 0.1, CPUTimeMS: 100_000, Remote: true},
			},
			Testability:  true,
			LicenseCents: 50,
		},
		Build: func(width int) (*gate.Netlist, error) {
			if width < 2 {
				return nil, fmt.Errorf("provider: multiplier width %d too small", width)
			}
			return canonicalNetlist("MultFastLowPower", width, func() *gate.Netlist {
				return gate.ArrayMultiplier(width)
			})
		},
		PowerFeeCents:   0.1,
		EvalFeeCents:    0.01,
		TableFeeCents:   0.5,
		TestSetFeeCents: 25,
		TimingFeeCents:  0.05,
	}
}

// HalfAdderIP1 returns the Figure 4 IP block as a catalogue component:
// the provider answers testability queries for it while only its
// behavioral function (a half adder) is public.
func HalfAdderIP1() *Component {
	return &Component{
		Spec: iplib.ComponentSpec{
			Name:          "IP1-HalfAdder",
			Description:   "half adder macro with virtual fault simulation support",
			MinWidth:      1,
			MaxWidth:      1,
			PublicFactory: "behavioral-halfadder",
			Testability:   true,
			LicenseCents:  5,
		},
		Build: func(width int) (*gate.Netlist, error) {
			return canonicalNetlist("IP1-HalfAdder", width, gate.HalfAdderIP)
		},
		EvalFeeCents:    0.01,
		TableFeeCents:   0.2,
		TestSetFeeCents: 10,
	}
}
