package module

import (
	"repro/internal/estim"
	"repro/internal/sim"
)

// Circuit is a hierarchical collection of interconnected components. A
// Circuit is itself a Module (with no ports of its own), so designs
// compose to arbitrary depth. The circuit never receives tokens; it
// exists to own its children for elaboration, setup application, and
// simulation control.
type Circuit struct {
	*Skeleton
	children []Module
}

// NewCircuit returns a circuit containing the given modules.
func NewCircuit(name string, modules ...Module) *Circuit {
	c := &Circuit{Skeleton: NewSkeleton(name, nil)}
	c.children = append(c.children, modules...)
	return c
}

// Add appends a module to the circuit.
func (c *Circuit) Add(ms ...Module) { c.children = append(c.children, ms...) }

// Children returns the circuit's direct submodules.
func (c *Circuit) Children() []Module { return c.children }

// Leaves returns every non-container module in the hierarchy, depth
// first. These are the handlers a simulation must reset and the
// components estimation setups select estimators for.
func (c *Circuit) Leaves() []Module {
	var out []Module
	var walk func(m Module)
	walk = func(m Module) {
		kids := m.Children()
		if len(kids) == 0 {
			out = append(out, m)
			return
		}
		for _, k := range kids {
			walk(k)
		}
	}
	for _, m := range c.children {
		walk(m)
	}
	return out
}

// Handlers returns the kernel handlers of the circuit's leaves, in
// Leaves order: each leaf's skeleton, the target of the tokens its
// ports receive, so a controller over them fixes the slots those tokens
// reach (sim.SlotIndex).
func (c *Circuit) Handlers() []sim.Handler {
	leaves := c.Leaves()
	hs := make([]sim.Handler, len(leaves))
	for i, m := range leaves {
		hs[i] = m.Base()
	}
	return hs
}

// ApplySetup hierarchically applies an estimation setup to a module and
// all its submodules — the paper's setup.apply(<module>). Applying to the
// circuit (the top module) applies the same criteria to every component.
func ApplySetup(s *estim.Setup, root Module) {
	kids := root.Children()
	if len(kids) == 0 {
		s.SelectFor(root)
		return
	}
	for _, k := range kids {
		ApplySetup(s, k)
	}
}

// Simulation is the paper's SimulationController: it owns a design and
// runs event-driven simulations over it, optionally estimating cost
// metrics under a setup. Multiple setups for the same design and multiple
// simulations performed concurrently are both supported.
//
// A Simulation keeps one scheduler per concurrent lane and recycles it
// on every run, so the lanes' storage (calendar lanes, state slots,
// module run state) stays alive between runs. A returned Stats, and
// every History it reaches, is valid until the next Start or
// StartConcurrent on the same Simulation. A Simulation is not safe for
// concurrent Start calls.
type Simulation struct {
	circuit *Circuit
	leaves  []Module
	ctrl    *sim.Controller
	scheds  []*sim.Scheduler // one per lane, grown on demand
	// Until bounds the simulated time; zero runs until the queue drains.
	Until sim.Time
	// EventLimit overrides the kernel's default event budget when nonzero.
	EventLimit uint64
}

// NewSimulation returns a simulation controller over the circuit.
func NewSimulation(c *Circuit) *Simulation {
	return &Simulation{circuit: c, leaves: c.Leaves(), ctrl: sim.NewController(c.Handlers()...)}
}

// Start runs one simulation with the given setup (nil to simulate without
// estimation) on lane 0. When a setup is supplied it is first applied
// hierarchically to the whole design, and every leaf module receives an
// estimation token at the end of each simulation time instant.
func (s *Simulation) Start(setup *estim.Setup) sim.Stats {
	return s.StartConcurrent([]*estim.Setup{setup})[0]
}

// StartConcurrent runs len(setups) independent simulations of the design
// concurrently, lane i under setups[i] (nil entries simulate without
// estimation), and returns their statistics in lane order. The kernel's
// state isolation guarantees the runs cannot interfere.
func (s *Simulation) StartConcurrent(setups []*estim.Setup) []sim.Stats {
	for _, st := range setups {
		if st != nil {
			ApplySetup(st, s.circuit)
		}
	}
	s.ctrl.Options = sim.RunOptions{Until: s.Until}
	s.ctrl.EventLimit = s.EventLimit
	for len(s.scheds) < len(setups) {
		s.scheds = append(s.scheds, sim.NewScheduler())
	}
	stats := make([]sim.Stats, len(setups))
	sim.Pool{Workers: len(setups)}.For(len(setups), func(i int) error {
		if setups[i] == nil {
			// An untyped nil, so handlers see ctx.Setup == nil.
			stats[i] = s.ctrl.StartOn(s.scheds[i], nil, nil)
		} else {
			stats[i] = s.ctrl.StartOn(s.scheds[i], setups[i], s.estimationHook(setups[i]))
		}
		return nil
	})
	return stats
}

// estimationHook returns the configure step of a run under setup: an
// instant hook that sends every leaf an estimation token at the end of
// each instant. The token is one per run, reused across instants and
// leaves: the hook dispatches it synchronously on the scheduler's own
// goroutine and HandleToken only reads its fields.
func (s *Simulation) estimationHook(setup *estim.Setup) func(*sim.Scheduler) {
	return func(sched *sim.Scheduler) {
		tok := &sim.EstimationToken{Setup: setup}
		sched.AddInstantHook(func(ctx *sim.Context, completed sim.Time) {
			for _, m := range s.leaves {
				tok.T, tok.Dst = completed, m
				m.HandleToken(ctx, tok)
			}
		})
	}
}
