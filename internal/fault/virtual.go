package fault

import (
	"fmt"
	"strings"

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
	AppendPortValues(dst []signal.Value, ctx *sim.Context, dir module.Direction) []signal.Value
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
//     every simulation of a Run starts on the Run's one scheduler,
//     recycled in between, which is observationally a new one (fresh
//     SchedulerID, empty event store, module state re-initialized on
//     first use), so scheduler state isolation guarantees
//     non-interference.
//
// Run does all its work on the calling goroutine: the table queries go
// to the hosts one after another, in host order, and the injection runs
// follow one another on the one scheduler.
type VirtualSimulator struct {
	circuit *module.Circuit
	inputs  []*module.Connector
	outputs []*module.PrimaryOutput
	hosts   []*Host

	// Stats accumulates protocol-work counters across Run calls.
	Stats VirtualStats
	// EventLimit bounds each internal simulation run (0 = kernel default).
	EventLimit uint64
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

// BuildFaultList performs phase one: the union of the hosts' symbolic
// fault lists, qualified by instance name.
func (vs *VirtualSimulator) BuildFaultList() ([]string, error) {
	fl, err := vs.buildFaultList()
	if err != nil {
		return nil, err
	}
	return fl.qualified, nil
}

// faultList is the design-wide fault list: per host the provider's
// symbolic names in its order, and every fault's qualified name
// "<module>.<symbol>", host after host.
type faultList struct {
	names     [][]string // per host in vs.hosts order
	qualified []string
}

func (vs *VirtualSimulator) buildFaultList() (*faultList, error) {
	fl := &faultList{names: make([][]string, len(vs.hosts))}
	total, size := 0, 0
	for hi, h := range vs.hosts {
		names, err := h.Service.FaultList()
		if err != nil {
			return nil, fmt.Errorf("fault: fault list of %s: %w", h.Module.ModuleName(), err)
		}
		fl.names[hi] = names
		total += len(names)
		for _, n := range names {
			size += len(h.Module.ModuleName()) + 1 + len(n)
		}
	}
	// The qualified names are carved from one string.
	var text strings.Builder
	text.Grow(size)
	fl.qualified = make([]string, 0, total)
	for hi, h := range vs.hosts {
		for _, n := range fl.names[hi] {
			start := text.Len()
			text.WriteString(h.Module.ModuleName())
			text.WriteByte('.')
			text.WriteString(n)
			fl.qualified = append(fl.qualified, text.String()[start:])
		}
	}
	return fl, nil
}

// virtualRun is the working set of one Run: a kernel controller over
// the design's leaves and each host's forcing targets, built once, one
// scheduler, recycled for every simulation of the Run, and the
// per-pattern scratch, reused by every pattern.
type virtualRun struct {
	*VirtualSimulator
	ctrl    *sim.Controller
	targets []*forceTargets // per host, in vs.hosts order
	sched   *sim.Scheduler
	// pattern is the input pattern every run seeds at time 1. It changes
	// only between patterns, so every run of a pattern shares it.
	pattern []signal.Bit

	// alive maps, per host, each still-undetected symbolic fault to its
	// index in the design-wide list; remaining counts them all.
	alive     []map[string]int
	remaining int

	// Per-pattern scratch. ctx reads the scheduler between runs. live
	// lists the hosts (by index) with live faults and tables their
	// detection tables; hostIn holds each host's captured input
	// configuration, read through vals. golden and faulty hold
	// primary-output snapshots.
	ctx    *sim.Context
	live   []int
	vals   []signal.Value
	hostIn [][]signal.Bit
	tables []*DetectionTable
	jobs   []injectionJob
	golden []signal.Value
	faulty []signal.Value
}

// newRun builds the controller, the scheduler, the hosts' forcing
// targets and the per-pattern scratch for a Run.
func (vs *VirtualSimulator) newRun() *virtualRun {
	r := &virtualRun{
		VirtualSimulator: vs,
		ctrl:             sim.NewController(vs.circuit.Handlers()...),
		targets:          make([]*forceTargets, len(vs.hosts)),
		sched:            sim.NewScheduler(),
		live:             make([]int, 0, len(vs.hosts)),
		hostIn:           make([][]signal.Bit, len(vs.hosts)),
		tables:           make([]*DetectionTable, 0, len(vs.hosts)),
		golden:           make([]signal.Value, len(vs.outputs)),
		faulty:           make([]signal.Value, len(vs.outputs)),
	}
	r.ctrl.EventLimit = vs.EventLimit
	r.ctrl.Seed = r.seed
	r.ctx = r.sched.NewContext()
	for hi, h := range vs.hosts {
		r.targets[hi] = newForceTargets(h)
	}
	return r
}

// seed posts the current pattern at the primary inputs at time 1.
func (r *virtualRun) seed(ctx *sim.Context) {
	for i, conn := range r.inputs {
		dst := conn.InputEnd()
		if dst == nil {
			continue
		}
		ctx.PostSignal(1, dst.Owner(), dst.Owner().SlotIndex().Load(), dst.Index, signal.BitValue{B: r.pattern[i]}, "PI")
	}
}

// simulate runs one simulation on the Run's scheduler and stores the
// settled value of every primary output in out (nil entries mean the
// output was never driven): the last observation of the run's history,
// read before the scheduler runs again.
func (r *virtualRun) simulate(configure func(*sim.Scheduler), out []signal.Value) error {
	st := r.ctrl.StartOn(r.sched, nil, configure)
	for i, po := range r.outputs {
		out[i] = nil
		if h := po.History(r.sched); len(h) > 0 {
			out[i] = h[len(h)-1].Value
		}
	}
	return st.Err
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

// forceTargets is what an injection into one host drives: the source
// name of the forced posts, and the peer port of each of the host's
// output ports in output order (nil where the output is unconnected).
type forceTargets struct {
	name  string
	peers []*module.Port
}

// newForceTargets resolves a host's forcing targets once per Run.
func newForceTargets(h *Host) *forceTargets {
	outs := h.Module.OutputPorts()
	ft := &forceTargets{name: h.Module.ModuleName() + "#forced", peers: make([]*module.Port, len(outs))}
	for i, p := range outs {
		if conn := p.Connector(); conn != nil {
			ft.peers[i] = conn.Peer(p)
		}
	}
	return ft
}

// forcer replaces a host module's event handling during an injection run:
// on its first delivery it assigns the faulty output configuration to the
// module's output ports regardless of input values.
type forcer struct {
	*forceTargets
	pattern signal.Word
	fired   bool
}

// HandlerName implements sim.Handler.
func (f *forcer) HandlerName() string { return f.name }

// HandleToken drives the faulty configuration once, then swallows
// everything else addressed to the module.
func (f *forcer) HandleToken(ctx *sim.Context, tok sim.Token) {
	if f.fired {
		return
	}
	f.fired = true
	for i, peer := range f.peers {
		if peer == nil {
			continue
		}
		ctx.PostSignal(ctx.Now()+1, peer.Owner(), peer.Owner().SlotIndex().Load(), peer.Index, signal.BitValue{B: f.pattern.Bit(i)}, f.name)
	}
}

// captureInputs converts a host's captured input port values to bits in
// dst's storage (X for ports never driven).
func captureInputs(dst []signal.Bit, vals []signal.Value) []signal.Bit {
	dst = dst[:0]
	for _, v := range vals {
		b := signal.BX
		if bv, ok := v.(signal.BitValue); ok {
			b = bv.B
		}
		dst = append(dst, b)
	}
	return dst
}

// Run executes the full two-phase protocol over the pattern sequence and
// returns the detection result (same shape as the serial reference).
func (vs *VirtualSimulator) Run(patterns [][]signal.Bit) (*Result, error) {
	fl, err := vs.buildFaultList()
	if err != nil {
		return nil, err
	}
	total := len(fl.qualified)
	res := &Result{
		Total:      total,
		Detected:   make(map[string]int, total),
		PerPattern: make([][]string, len(patterns)),
	}
	r := vs.newRun()
	r.alive = make([]map[string]int, len(vs.hosts))
	gi := 0
	for hi, names := range fl.names {
		m := make(map[string]int, len(names))
		for _, n := range names {
			m[n] = gi
			gi++
		}
		r.alive[hi] = m
		r.remaining += len(m)
	}
	// Each fault is detected at most once, so the per-pattern lists are
	// carved from one slice of the whole list's size.
	detections := make([]string, 0, total)
	for pi, pattern := range patterns {
		if len(pattern) != len(vs.inputs) {
			return nil, fmt.Errorf("fault: pattern %d has %d bits, design has %d inputs",
				pi, len(pattern), len(vs.inputs))
		}
		start := len(detections)
		detections, err = r.runPattern(pi, pattern, fl.qualified, detections, res)
		if err != nil {
			return nil, err
		}
		if end := len(detections); end > start {
			res.PerPattern[pi] = detections[start:end:end]
		}
		if r.remaining == 0 {
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
// injection run, with the forcer that injects it. rowFaults keeps the
// provider's ORIGINAL fault list for the row: the merge step re-filters
// it against the live set in host/row order, so the recorded detections
// stay well defined even for degenerate providers whose rows overlap.
type injectionJob struct {
	host      int // index in vs.hosts
	force     forcer
	rowFaults []string
	detected  bool
}

// runPattern performs the fault-free simulation, detection-table
// exchange, and injection runs for one test pattern, and appends the
// qualified names of the faults it detects to detections. Every
// simulation runs on the Run's recycled scheduler; detections are merged
// in host/row order once every injection has run.
func (r *virtualRun) runPattern(pi int, pattern []signal.Bit, qualified, detections []string, res *Result) ([]string, error) {
	// Fault-free simulation.
	r.pattern = pattern
	if err := r.simulate(nil, r.golden); err != nil {
		return detections, err
	}
	r.Stats.FaultFreeRuns++

	// Capture the settled input values of every host that still has live
	// faults from the run's final state: the values at the end of its
	// last instant. A run that delivered nothing completed no instant and
	// leaves the configuration empty.
	r.live = r.live[:0]
	for hi, h := range r.hosts {
		if len(r.alive[hi]) == 0 {
			continue
		}
		r.vals = r.vals[:0]
		if r.sched.Delivered() > 0 {
			r.vals = h.Module.AppendPortValues(r.vals, r.ctx, module.In)
		}
		r.live = append(r.live, hi)
		r.hostIn[hi] = captureInputs(r.hostIn[hi], r.vals)
	}

	// Phase A: fetch the detection table of every live host, in host
	// order.
	r.tables = r.tables[:0]
	for _, hi := range r.live {
		h := r.hosts[hi]
		dt, err := h.Service.DetectionTable(r.hostIn[hi])
		if err != nil {
			return detections, fmt.Errorf("fault: detection table of %s: %w", h.Module.ModuleName(), err)
		}
		r.Stats.DetectionTableCalls++
		r.tables = append(r.tables, dt)
	}

	// Phase B: schedule one injection per row still carrying live faults.
	// The live check is a snapshot taken before any injection runs — for
	// well-formed providers the rows of a table partition the host's
	// faults, so the snapshot agrees exactly with a one-row-at-a-time
	// filter.
	r.jobs = r.jobs[:0]
	for i, hi := range r.live {
		alive := r.alive[hi]
		for _, row := range r.tables[i].Rows {
			for _, f := range row.Faults {
				if _, ok := alive[f]; ok {
					r.jobs = append(r.jobs, injectionJob{
						host:      hi,
						force:     forcer{forceTargets: r.targets[hi], pattern: row.Output},
						rowFaults: row.Faults,
					})
					break
				}
			}
		}
	}
	// Each injection overrides the host's event handling to force the
	// row's erroneous output configuration, replays the pattern at the
	// primary inputs, and compares the primary outputs against the
	// fault-free run.
	for i := range r.jobs {
		job := &r.jobs[i]
		err := r.simulate(func(sched *sim.Scheduler) {
			sched.Override(r.hosts[job.host].Module.Base(), &job.force)
		}, r.faulty)
		if err != nil {
			return detections, err
		}
		r.Stats.InjectionRuns++
		job.detected = outputsDiffer(r.golden, r.faulty)
	}

	// Merge in host/row order, re-filtering each row against the live set
	// as of this point in the order, so a fault named by two rows is
	// recorded once, under the first.
	for _, job := range r.jobs {
		if !job.detected {
			continue
		}
		alive := r.alive[job.host]
		for _, f := range job.rowFaults {
			gi, ok := alive[f]
			if !ok {
				continue
			}
			delete(alive, f)
			r.remaining--
			q := qualified[gi]
			res.Detected[q] = pi
			detections = append(detections, q)
		}
	}
	return detections, nil
}
