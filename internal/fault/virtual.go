package fault

import (
	"fmt"
	"sync/atomic"

	"repro/internal/module"
	"repro/internal/signal"
	"repro/internal/sim"
)

// HostModule is the design-side view of an IP component under virtual
// fault simulation: a module whose ports can be snapshotted and whose
// outputs can be forced. Every module built on module.Skeleton satisfies
// it, including the remote IP proxies in internal/core.
type HostModule interface {
	module.Module
	PortValues(ctx *sim.Context, dir module.Direction) []signal.Value
	InputPorts() []*module.Port
	OutputPorts() []*module.Port
}

// Host couples one component instance in the user's design with the
// testability service answering for it — local for user-owned blocks,
// remote (via internal/provider) for IP components.
type Host struct {
	Module  HostModule
	Service TestabilityService
}

// VirtualStats counts the protocol work performed during a run — the raw
// material of the paper's cost discussion (table queries are the
// provider-side work; injection runs are the user-side work).
type VirtualStats struct {
	FaultFreeRuns       int
	DetectionTableCalls int
	InjectionRuns       int
}

// VirtualSimulator performs virtual fault simulation over a module-level
// design containing IP components. The two-phase protocol of the paper:
//
//  1. The target fault list for the entire circuit is built as the union
//     of the components' symbolic fault lists (a local, additive property
//     each provider precharacterizes).
//  2. For each test pattern, the design's fault-free behavior is
//     simulated and the signal configuration at each IP component's
//     inputs is made available to its provider, which returns the
//     corresponding detection table. For every erroneous output pattern s
//     containing still-undetected faults, s is injected at the
//     component's outputs on a scheduler whose event-handling for the
//     component is overridden, the effects are propagated through the
//     fault-free remainder of the design, and if any primary output
//     differs every fault associated with s is detected and dropped from
//     the fault list. No save/restore of the fault-free run is needed:
//     every injection runs on its own recycled scheduler, which is
//     observationally a new one (fresh SchedulerID, empty event store,
//     module state re-initialized), so scheduler state isolation
//     guarantees non-interference.
type VirtualSimulator struct {
	circuit *module.Circuit
	inputs  []*module.Connector
	outputs []*module.PrimaryOutput
	hosts   []*Host

	// Stats accumulates protocol-work counters across Run calls.
	Stats VirtualStats
	// EventLimit bounds each internal simulation run (0 = kernel default).
	EventLimit uint64
	// Workers bounds the concurrency of the per-pattern fan-out: the
	// detection-table queries to all hosts and the per-row injection runs.
	// 0 uses one worker per CPU, 1 reproduces the serial legacy path.
	// Each worker keeps one scheduler for the whole Run and recycles it
	// for every simulation it performs, so state isolation — not
	// save/restore — guarantees non-interference, and results are merged
	// in host/row order, making Result bit-identical across worker counts.
	Workers int
}

// NewVirtualSimulator returns a virtual fault simulator over the design.
// inputs are the design's primary-input connectors (pattern bit i drives
// inputs[i]); outputs are the design's primary-output monitors.
func NewVirtualSimulator(circuit *module.Circuit, inputs []*module.Connector, outputs []*module.PrimaryOutput) *VirtualSimulator {
	return &VirtualSimulator{circuit: circuit, inputs: inputs, outputs: outputs}
}

// AddHost registers an IP component and its testability service.
func (vs *VirtualSimulator) AddHost(m HostModule, svc TestabilityService) {
	vs.hosts = append(vs.hosts, &Host{Module: m, Service: svc})
}

// Hosts returns the registered hosts.
func (vs *VirtualSimulator) Hosts() []*Host { return vs.hosts }

// globalFault tracks one symbolic fault of one host in the design-wide
// fault list.
type globalFault struct {
	host *Host
	name string // provider's symbolic name
}

// qualified returns the design-wide fault name "<module>.<symbol>".
func (g globalFault) qualified() string { return g.host.Module.ModuleName() + "." + g.name }

// BuildFaultList performs phase one: the union of the hosts' symbolic
// fault lists, qualified by instance name.
func (vs *VirtualSimulator) BuildFaultList() ([]string, error) {
	gfs, err := vs.buildFaultList()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(gfs))
	for i, gf := range gfs {
		names[i] = gf.qualified()
	}
	return names, nil
}

func (vs *VirtualSimulator) buildFaultList() ([]globalFault, error) {
	var out []globalFault
	for _, h := range vs.hosts {
		names, err := h.Service.FaultList()
		if err != nil {
			return nil, fmt.Errorf("fault: fault list of %s: %w", h.Module.ModuleName(), err)
		}
		for _, n := range names {
			out = append(out, globalFault{host: h, name: n})
		}
	}
	return out, nil
}

// virtualRun is the working set of one Run: the design's leaf handlers,
// collected once, and one scheduler per pool worker, recycled for every
// simulation that worker performs.
type virtualRun struct {
	*VirtualSimulator
	handlers []sim.Handler
	scheds   []*sim.Scheduler
}

// newRun collects the design's leaf handlers for a Run.
func (vs *VirtualSimulator) newRun() *virtualRun {
	return &virtualRun{VirtualSimulator: vs, handlers: vs.circuit.Handlers(), scheds: make([]*sim.Scheduler, vs.pool().Size())}
}

// sched returns pool worker w's scheduler. The fault-free run uses
// worker 0's, between fan-outs, so no two goroutines share one.
func (r *virtualRun) sched(w int) *sim.Scheduler {
	if r.scheds[w] == nil {
		r.scheds[w] = sim.NewScheduler()
	}
	return r.scheds[w]
}

// controller builds a kernel controller over the design's leaves, seeded
// with one input pattern at time 1. It is read-only while runs start, so
// the fault-free run and every injection of the pattern share it.
func (r *virtualRun) controller(pattern []signal.Bit) *sim.Controller {
	c := sim.NewController(r.handlers...)
	c.EventLimit = r.EventLimit
	c.Seed = func(ctx *sim.Context) {
		for i, conn := range r.inputs {
			dst := conn.InputEnd()
			if dst == nil {
				continue
			}
			ctx.PostSignal(1, dst.Owner(), dst.Owner().SlotIndex().Load(), dst.Index, signal.BitValue{B: pattern[i]}, "PI")
		}
	}
	return c
}

// pool returns the worker pool bounding this simulator's fan-outs.
func (vs *VirtualSimulator) pool() sim.Pool { return sim.Pool{Workers: vs.Workers} }

// simulate runs one simulation on sched and returns the settled value of
// every primary output (nil entries mean the output was never driven).
// It releases the run's output histories on every path, error included:
// the run's outputs are consumed exactly once, and the histories of
// other runs — this Run's other workers, or another Run over the same
// design — are not this run's to touch.
func (vs *VirtualSimulator) simulate(ctrl *sim.Controller, sched *sim.Scheduler, configure func(*sim.Scheduler)) ([]signal.Value, error) {
	st := ctrl.StartOn(sched, nil, configure)
	out := make([]signal.Value, len(vs.outputs))
	for i, po := range vs.outputs {
		h := po.History(st.Scheduler)
		if len(h) > 0 {
			out[i] = h[len(h)-1].Value
		}
		po.ReleaseHistory(st.Scheduler)
	}
	return out, st.Err
}

// outputsDiffer reports whether two primary-output snapshots differ in a
// known way (an X or missing value never counts as a detection).
func outputsDiffer(a, b []signal.Value) bool {
	for i := range a {
		av, aok := a[i].(signal.BitValue)
		bv, bok := b[i].(signal.BitValue)
		if aok && bok && av.B.Known() && bv.B.Known() && av.B != bv.B {
			return true
		}
	}
	return false
}

// forcer replaces a host module's event handling during an injection run:
// on its first delivery it assigns the faulty output configuration to the
// module's output ports regardless of input values.
type forcer struct {
	host    *Host
	pattern signal.Word
	fired   bool
}

// HandlerName implements sim.Handler.
func (f *forcer) HandlerName() string { return f.host.Module.ModuleName() + "#forced" }

// HandleToken drives the faulty configuration once, then swallows
// everything else addressed to the module.
func (f *forcer) HandleToken(ctx *sim.Context, tok sim.Token) {
	if f.fired {
		return
	}
	f.fired = true
	for i, p := range f.host.Module.OutputPorts() {
		conn := p.Connector()
		if conn == nil {
			continue
		}
		peer := conn.Peer(p)
		if peer == nil {
			continue
		}
		ctx.PostSignal(ctx.Now()+1, peer.Owner(), peer.Owner().SlotIndex().Load(), peer.Index, signal.BitValue{B: f.pattern.Bit(i)}, f.HandlerName())
	}
}

// hostInputBits converts a host's captured input port values to bits
// (X for ports never driven).
func hostInputBits(vals []signal.Value) []signal.Bit {
	out := make([]signal.Bit, len(vals))
	for i, v := range vals {
		if bv, ok := v.(signal.BitValue); ok {
			out[i] = bv.B
		} else {
			out[i] = signal.BX
		}
	}
	return out
}

// Run executes the full two-phase protocol over the pattern sequence and
// returns the detection result (same shape as the serial reference).
func (vs *VirtualSimulator) Run(patterns [][]signal.Bit) (*Result, error) {
	gfs, err := vs.buildFaultList()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Total:      len(gfs),
		Detected:   make(map[string]int),
		PerPattern: make([][]string, len(patterns)),
	}
	alive := make(map[*Host]map[string]bool, len(vs.hosts))
	for _, gf := range gfs {
		m := alive[gf.host]
		if m == nil {
			m = make(map[string]bool)
			alive[gf.host] = m
		}
		m[gf.name] = true
	}
	r := vs.newRun()
	for pi, pattern := range patterns {
		if len(pattern) != len(vs.inputs) {
			return nil, fmt.Errorf("fault: pattern %d has %d bits, design has %d inputs",
				pi, len(pattern), len(vs.inputs))
		}
		if err := r.runPattern(pi, pattern, alive, res); err != nil {
			return nil, err
		}
		done := true
		for _, m := range alive {
			if len(m) > 0 {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	// Drain replica-disagreement records from quorum-mode services,
	// stamped with the design instance they answer for.
	for _, h := range vs.hosts {
		src, ok := h.Service.(DivergenceSource)
		if !ok {
			continue
		}
		for _, d := range src.Divergences() {
			d.Module = h.Module.ModuleName()
			res.Divergences = append(res.Divergences, d)
		}
	}
	return res, nil
}

// injectionJob is one row of one host's detection table scheduled for an
// injection run. rowFaults keeps the provider's ORIGINAL fault list for
// the row: the merge step re-filters it against the live set in serial
// order, so the recorded detections are bit-identical to the serial path
// even for degenerate providers whose rows overlap.
type injectionJob struct {
	host      *Host
	output    signal.Word
	rowFaults []string
	detected  bool
}

// runPattern performs the fault-free simulation, detection-table
// exchange, and injection runs for one test pattern. The detection-table
// queries (one RMI round trip per host) and the injection runs (one per
// erroneous row, each on its worker's recycled scheduler) are
// independent, so both fan out over the simulator's worker pool;
// detections are then merged in the serial host/row order.
func (r *virtualRun) runPattern(pi int, pattern []signal.Bit, alive map[*Host]map[string]bool, res *Result) error {
	// Fault-free simulation, capturing each host's settled input values.
	ctrl := r.controller(pattern)
	captured := make(map[*Host][]signal.Value, len(r.hosts))
	golden, err := r.simulate(ctrl, r.sched(0), func(sched *sim.Scheduler) {
		sched.AddInstantHook(func(ctx *sim.Context, _ sim.Time) {
			for _, h := range r.hosts {
				captured[h] = h.Module.PortValues(ctx, module.In)
			}
		})
	})
	if err != nil {
		return err
	}
	r.Stats.FaultFreeRuns++

	// Phase A: fetch the detection tables of every host that still has
	// live faults, concurrently — each query goes to a different provider.
	live := make([]*Host, 0, len(r.hosts))
	for _, h := range r.hosts {
		if len(alive[h]) > 0 {
			live = append(live, h)
		}
	}
	tables := make([]*DetectionTable, len(live))
	var tableCalls atomic.Int64
	err = r.pool().For(len(live), func(i int) error {
		h := live[i]
		dt, err := h.Service.DetectionTable(hostInputBits(captured[h]))
		if err != nil {
			return fmt.Errorf("fault: detection table of %s: %w", h.Module.ModuleName(), err)
		}
		tableCalls.Add(1)
		tables[i] = dt
		return nil
	})
	r.Stats.DetectionTableCalls += int(tableCalls.Load())
	if err != nil {
		return err
	}

	// Phase B: schedule one injection per row still carrying live faults.
	// The live check is a snapshot — for well-formed providers the rows of
	// a table partition the host's faults, so the snapshot agrees exactly
	// with the serial one-row-at-a-time filter.
	var jobs []injectionJob
	for i, h := range live {
		for _, row := range tables[i].Rows {
			hasLive := false
			for _, f := range row.Faults {
				if alive[h][f] {
					hasLive = true
					break
				}
			}
			if hasLive {
				jobs = append(jobs, injectionJob{host: h, output: row.Output, rowFaults: row.Faults})
			}
		}
	}
	// Each injection overrides the host's event handling to force the
	// row's erroneous output configuration, replays the pattern at the
	// primary inputs on its worker's scheduler, and compares the primary
	// outputs against the fault-free run.
	var injections atomic.Int64
	err = r.pool().ForWorker(len(jobs), func(w, i int) error {
		faulty, err := r.simulate(ctrl, r.sched(w), func(sched *sim.Scheduler) {
			sched.Override(jobs[i].host.Module.Base(), &forcer{host: jobs[i].host, pattern: jobs[i].output})
		})
		if err != nil {
			return err
		}
		injections.Add(1)
		jobs[i].detected = outputsDiffer(golden, faulty)
		return nil
	})
	r.Stats.InjectionRuns += int(injections.Load())
	if err != nil {
		return err
	}

	// Merge in serial host/row order, re-filtering each row against the
	// live set as of this point in the order — exactly what the serial
	// loop saw — so Result is byte-identical for any worker count.
	for _, job := range jobs {
		if !job.detected {
			continue
		}
		for _, f := range job.rowFaults {
			if !alive[job.host][f] {
				continue
			}
			delete(alive[job.host], f)
			q := globalFault{host: job.host, name: f}.qualified()
			res.Detected[q] = pi
			res.PerPattern[pi] = append(res.PerPattern[pi], q)
		}
	}
	return nil
}
