// Marketplace demonstrates the paper's Figure 1 topology: one IP user
// evaluating components from TWO independent providers, each with its
// own server, catalogue, model offers and prices. The user reads both
// catalogues and binds a different estimator setup at each provider
// (trading accuracy against cost and speed — the Table 1 trade-off),
// runs concurrent simulations of the same design under both setups, and
// compares estimates and bills before deciding what to buy.
package main

import (
	"fmt"
	"log"

	gocad "repro"
	"repro/internal/estim"
	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/provider"
)

// cheapMultiplier is provider 2's offering: functionally identical, but
// with only a free constant power model (its setup in Figure 1 lists
// "Power model 0"), a lower license fee, and no testability service.
func cheapMultiplier() *gocad.ProviderComponent {
	return &gocad.ProviderComponent{
		Spec: iplib.ComponentSpec{
			Name:          "MultBudget",
			Description:   "budget multiplier, functional model only",
			MinWidth:      2,
			MaxWidth:      32,
			PublicFactory: "behavioral-mult",
			Estimators: []iplib.EstimatorOffer{
				{Name: "constant", Param: string(estim.ParamAvgPower), ErrPct: 40, CostCents: 0, Remote: false},
			},
			LicenseCents: 10,
		},
		Build: func(width int) (*gate.Netlist, error) {
			return gate.ArrayMultiplier(width), nil
		},
		PowerFeeCents: 0,
	}
}

func main() {
	const width = 12

	// Two providers, two servers.
	prov1 := provider.New("fast-silicon-inc")
	if err := prov1.Register(provider.MultFastLowPower()); err != nil {
		log.Fatal(err)
	}
	prov2 := provider.New("budget-cores-ltd")
	if err := prov2.Register(cheapMultiplier()); err != nil {
		log.Fatal(err)
	}

	conn1, err := gocad.ConnectInProcess(prov1, "designer", gocad.NetWAN)
	if err != nil {
		log.Fatal(err)
	}
	defer conn1.Close()
	conn2, err := gocad.ConnectInProcess(prov2, "designer", gocad.NetLAN)
	if err != nil {
		log.Fatal(err)
	}
	defer conn2.Close()

	// Browse both catalogues.
	for i, c := range []*gocad.Connection{conn1, conn2} {
		specs, err := c.Client.Catalogue()
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range specs {
			fmt.Printf("provider %d offers %s (license %.0f¢):\n", i+1, s.Name, s.LicenseCents)
			for _, e := range s.Estimators {
				where := "local"
				if e.Remote {
					where = "REMOTE"
				}
				fmt.Printf("    %-24s err %2.0f%%  %5.2f¢/call  %s\n", e.Name, e.ErrPct, e.CostCents, where)
			}
		}
	}

	// Bind the chosen estimators: accurate (and billed) models from
	// provider 1, the free constant model from provider 2.
	inst1, err := conn1.Client.Bind("MultFastLowPower", width, []string{"gate-level-toggle-count"})
	if err != nil {
		log.Fatal(err)
	}
	inst2, err := conn2.Client.Bind("MultBudget", width, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate both candidates in the same design under two concurrent
	// setups (one scheduler each; the kernel guarantees no interference).
	evaluate := func(name string, attach func(m *gocad.RemoteMult) *gocad.RemotePowerEstimator,
		inst *gocad.BoundInstance, conn *gocad.Connection) {
		a := gocad.NewWordConnector("A", width)
		ar := gocad.NewWordConnector("AR", width)
		b := gocad.NewWordConnector("B", width)
		br := gocad.NewWordConnector("BR", width)
		o := gocad.NewWordConnector("O", 2*width)
		ina := gocad.NewRandomPrimaryInput("INA", width, 1, 60, 10, a)
		rega := gocad.NewRegister("REGA", width, a, ar)
		inb := gocad.NewRandomPrimaryInput("INB", width, 2, 60, 10, b)
		regb := gocad.NewRegister("REGB", width, b, br)
		out := gocad.NewPrimaryOutput("OUT", 2*width, o)
		mult, err := gocad.NewRemoteMult("MULT", width, ar, br, o, inst)
		if err != nil {
			log.Fatal(err)
		}
		var remote *gocad.RemotePowerEstimator
		if attach != nil {
			remote = attach(mult)
		}
		circuit := gocad.NewCircuit("eval-"+name, ina, rega, inb, regb, mult, out)
		simu := gocad.NewSimulation(circuit)
		setup := gocad.NewSetup(name)
		setup.Set(gocad.ParamAvgPower, gocad.Criteria{Prefer: gocad.PreferAccuracy})
		stats := simu.Start(setup)
		if stats.Err != nil {
			log.Fatal(stats.Err)
		}
		if remote != nil {
			if err := remote.Close(); err != nil {
				log.Fatal(err)
			}
			rep := remote.Report()
			fmt.Printf("\n%s: avg power %.1f µW over %d samples (accurate, remote)\n",
				name, rep.AvgPower, len(rep.Samples))
		} else if agg, ok := setup.AggregateFor("MULT", gocad.ParamAvgPower); ok {
			fmt.Printf("\n%s: avg power %.1f µW over %d samples (data-sheet constant)\n",
				name, agg.Mean(), agg.Count)
		}
		fees, err := conn.Client.Fees()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: bill so far %.1f¢, %d RMI calls\n", name, fees, conn.Meter.Calls())
	}

	evaluate("fast-silicon", func(m *gocad.RemoteMult) *gocad.RemotePowerEstimator {
		offer, _ := multOffer(inst1, "gate-level-toggle-count")
		e := gocad.NewRemoteEstimator(inst1, offer, 10, true)
		m.AddEstimator(e)
		return e
	}, inst1, conn1)

	evaluate("budget-cores", func(m *gocad.RemoteMult) *gocad.RemotePowerEstimator {
		offer, ok := multOffer(inst2, "constant")
		if !ok {
			return nil
		}
		m.AddEstimator(&estim.Constant{
			Meta: estim.Meta{
				Name:   offer.Name,
				Param:  offer.Parameter(),
				ErrPct: offer.ErrPct,
			},
			Value: 60, // the data-sheet number provider 2 publishes
		})
		return nil
	}, inst2, conn2)

	fmt.Println("\nconclusion: provider 1 charges per pattern for accuracy;" +
		" provider 2 is free but ±40%. The designer decides with numbers, not guesses.")
}

// multOffer finds an offer by name on a bound instance.
func multOffer(inst *gocad.BoundInstance, name string) (iplib.EstimatorOffer, bool) {
	for _, e := range inst.Enabled() {
		if e.Name == name {
			return e, true
		}
	}
	return iplib.EstimatorOffer{}, false
}
