package module

import (
	"fmt"
	"sync"

	"repro/internal/estim"
	"repro/internal/signal"
	"repro/internal/sim"
)

// Module is gocad's design-component interface. Every component is built
// around an embedded *Skeleton, which implements the full interface; the
// component's specific functionality lives in its Behavior.
type Module interface {
	sim.Handler
	estim.Component
	// Children returns submodules for hierarchical designs; leaf modules
	// return nil.
	Children() []Module
	// Base returns the embedded skeleton: the handler that tokens
	// addressed to the module's ports are delivered to, and so the one a
	// controller lists and a scheduler override replaces.
	Base() *Skeleton
}

// PortEvent is one input event as seen by a behavior: which port, the new
// value, and the value the port held before.
type PortEvent struct {
	Port  *Port
	Value signal.Value
	Prev  signal.Value
}

// Behavior is the specialization point of a module — the paper's
// processInputEvent method. All other machinery (initialization, event
// handling, setup control, estimator selection and invocation) comes from
// Skeleton and need not be overridden.
//
// The *Ctx and *PortEvent arguments are valid only for the duration of
// the call: the skeleton reuses them across deliveries on the same
// scheduler, so implementations must not retain either past return
// (copy the fields instead).
type Behavior interface {
	ProcessInputEvent(ctx *Ctx, ev *PortEvent)
}

// SelfBehavior is implemented by autonomous modules that schedule events
// for themselves (clock and stimulus generators).
type SelfBehavior interface {
	ProcessSelfEvent(ctx *Ctx, tok *sim.SelfToken)
}

// ControlBehavior is implemented by modules that react to control tokens
// (runtime parameter changes, design traversal messages).
type ControlBehavior interface {
	ProcessControl(ctx *Ctx, tok *sim.ControlToken)
}

// ResetBehavior is implemented by modules that need per-scheduler
// initialization before a run — typically to seed a first self-trigger.
type ResetBehavior interface {
	Reset(ctx *Ctx)
}

// runState is a module's per-run mutable state: current and previous
// values on every port, plus behavior-private state. It lives in the
// running scheduler's state slot for the module (sim.Context.SlotAt) and
// is reused when that scheduler is recycled; run stamps the run it was
// last initialized for.
type runState struct {
	run sim.SchedulerID
	// vals backs in, prevIn and out, one port-count window each.
	vals   []signal.Value
	in     []signal.Value
	prevIn []signal.Value
	out    []signal.Value
	user   any
	// dirty is set when an input event arrives and cleared once the
	// module's estimators have run, so estimation happens once per
	// stimulus (per pattern), not once per simulation instant.
	dirty bool
	// mctx and pev are dispatch scratch, reused across deliveries on
	// this scheduler so the hot token path allocates nothing. Behaviors
	// receive them for the duration of one call only (see Behavior).
	mctx Ctx
	pev  PortEvent
	// ec is estimation scratch: the EvalContext (and the port-value
	// slices it carries) is rebuilt in place for every estimation round
	// on this scheduler. Estimators see it for one Estimate call only.
	ec estim.EvalContext
}

// Skeleton implements Module. Concrete components embed *Skeleton and
// pass themselves (their Behavior) to NewSkeleton.
type Skeleton struct {
	name     string
	behavior Behavior
	ports    []*Port
	// slot is the module's fixed index in a run's handler table, claimed
	// by the first controller listing the skeleton (sim.SlotIndex).
	slot sim.SlotIndex

	// estMu guards the estimator tables, made on first registration.
	estMu      sync.RWMutex
	candidates map[estim.Parameter][]estim.Estimator
	selected   map[*estim.Setup]map[estim.Parameter]estim.Estimator
}

// NewSkeleton returns a skeleton for a component named name whose
// functionality is implemented by behavior. behavior may be nil for
// purely passive components.
func NewSkeleton(name string, behavior Behavior) *Skeleton {
	return &Skeleton{name: name, behavior: behavior}
}

// AddPort creates a port on the module and ties it to the connector.
func (sk *Skeleton) AddPort(name string, dir Direction, width int, conn *Connector) *Port {
	p := &Port{Name: name, Dir: dir, Width: width, Index: len(sk.ports), owner: sk}
	if conn != nil {
		if conn.Width != 0 && width != 0 && conn.Width != width {
			panic(fmt.Sprintf("module: port %s.%s width %d does not match connector %q width %d",
				sk.name, name, width, conn.Name, conn.Width))
		}
		conn.attach(p)
		p.conn = conn
	}
	sk.ports = append(sk.ports, p)
	return p
}

// HandlerName implements sim.Handler.
func (sk *Skeleton) HandlerName() string { return sk.name }

// SlotIndex implements sim.Indexed.
func (sk *Skeleton) SlotIndex() *sim.SlotIndex { return &sk.slot }

// Base returns the skeleton itself. Signal tokens are addressed to the
// embedded *Skeleton (ports record it as their owner), so kernel-level
// operations that key on the delivery target — e.g. per-scheduler handler
// overrides during fault injection — must use Base(), not the outer
// module value.
func (sk *Skeleton) Base() *Skeleton { return sk }

// ModuleName implements estim.Component.
func (sk *Skeleton) ModuleName() string { return sk.name }

// Children returns nil: skeletons are leaf modules. Hierarchical
// containers (Circuit) override this.
func (sk *Skeleton) Children() []Module { return nil }

// stateFor returns the module's run state from ctx's scheduler slot:
// created on first use, re-initialized when the slot still holds the
// state of an earlier run of a recycled scheduler. No lock — the slot
// belongs to the one goroutine running that scheduler.
func (sk *Skeleton) stateFor(ctx *sim.Context) *runState {
	slot := ctx.SlotAt(sk, sk.slot.Load())
	rs, _ := (*slot).(*runState)
	if rs == nil {
		n := len(sk.ports)
		vals := make([]signal.Value, 3*n)
		rs = &runState{
			vals:   vals,
			in:     vals[:n:n],
			prevIn: vals[n : 2*n : 2*n],
			out:    vals[2*n:],
			run:    ctx.SchedulerID(),
		}
		*slot = rs
	} else if rs.run != ctx.SchedulerID() {
		rs.reset(ctx.SchedulerID())
	}
	return rs
}

// stateOn returns the behavior-private state s's last run left for the
// module, or nil when that run never reached it. It reads the slot
// between runs of s, without interning the module.
func (sk *Skeleton) stateOn(s *sim.Scheduler) any {
	if rs, _ := s.SlotValue(sk, sk.slot.Load()).(*runState); rs != nil && rs.run == s.ID() {
		return rs.user
	}
	return nil
}

// recyclable is behavior-private state that resets in place when its
// run state is reused, instead of being dropped. Only this package's
// behaviors implement it (a NetlistModule on the lane path keeps its
// evaluator, PrimaryOutput its history's storage); any other behavior's
// state is dropped.
type recyclable interface {
	recycle()
}

// reset returns a reused run state to what a new one holds: no port
// values and no behavior-private state (dropped, or reset in place when
// it is recyclable). The estimation scratch keeps its capacity — it is
// rebuilt for every estimation round anyway.
func (rs *runState) reset(run sim.SchedulerID) {
	rs.run = run
	clear(rs.vals)
	if r, ok := rs.user.(recyclable); ok {
		r.recycle()
	} else {
		rs.user = nil
	}
	rs.dirty = false
	rs.mctx = Ctx{}
	rs.pev = PortEvent{}
}

// ResetState implements sim.Resettable: it runs the behavior's Reset
// hook, if it has one, on the module's run state for ctx's run. It does
// nothing for any other module: stateFor re-initializes a run state the
// first time a run uses it, and stateOn reads a module the run never
// reached as empty.
func (sk *Skeleton) ResetState(ctx *sim.Context) {
	rb, ok := sk.behavior.(ResetBehavior)
	if !ok {
		return
	}
	rs := sk.stateFor(ctx)
	rs.mctx = Ctx{Sim: ctx, sk: sk, rs: rs}
	rb.Reset(&rs.mctx)
}

// HandleToken implements sim.Handler: it dispatches signal tokens to the
// behavior, estimation tokens to the selected estimators, and self and
// control tokens to the corresponding optional behaviors.
func (sk *Skeleton) HandleToken(ctx *sim.Context, tok sim.Token) {
	switch t := tok.(type) {
	case *sim.SignalToken:
		if t.Port < 0 || t.Port >= len(sk.ports) {
			panic(fmt.Sprintf("module: %s has no port %d", sk.name, t.Port))
		}
		rs := sk.stateFor(ctx)
		prev := rs.in[t.Port]
		rs.prevIn[t.Port] = prev
		rs.in[t.Port] = t.Value
		rs.dirty = true
		if sk.behavior != nil {
			rs.mctx = Ctx{Sim: ctx, sk: sk, rs: rs}
			rs.pev = PortEvent{Port: sk.ports[t.Port], Value: t.Value, Prev: prev}
			sk.behavior.ProcessInputEvent(&rs.mctx, &rs.pev)
		}
	case *sim.EstimationToken:
		setup, _ := t.Setup.(*estim.Setup)
		if setup == nil {
			setup, _ = ctx.Setup.(*estim.Setup)
		}
		if setup != nil {
			sk.runEstimators(ctx, setup)
		}
	case *sim.SelfToken:
		if sb, ok := sk.behavior.(SelfBehavior); ok {
			rs := sk.stateFor(ctx)
			rs.mctx = Ctx{Sim: ctx, sk: sk, rs: rs}
			sb.ProcessSelfEvent(&rs.mctx, t)
		}
	case *sim.ControlToken:
		if cb, ok := sk.behavior.(ControlBehavior); ok {
			rs := sk.stateFor(ctx)
			rs.mctx = Ctx{Sim: ctx, sk: sk, rs: rs}
			cb.ProcessControl(&rs.mctx, t)
		}
	}
}

// runEstimators invokes the estimators this setup selected for the module
// and records their values. Estimation failures are recorded as null
// values rather than aborting the simulation.
func (sk *Skeleton) runEstimators(ctx *sim.Context, setup *estim.Setup) {
	sk.estMu.RLock()
	sel := sk.selected[setup]
	sk.estMu.RUnlock()
	if len(sel) == 0 {
		return
	}
	rs := sk.stateFor(ctx)
	if !rs.dirty {
		return
	}
	rs.dirty = false
	ec := &rs.ec
	ec.Module = sk.name
	ec.Now = int64(ctx.Now())
	ec.Inputs = sk.portValues(ec.Inputs[:0], rs.in, In)
	ec.PrevIn = sk.portValues(ec.PrevIn[:0], rs.prevIn, In)
	for param, e := range sel {
		v, err := e.Estimate(ec)
		if err != nil {
			v = estim.NullValue{}
		}
		setup.Record(sk.name, param, int64(ctx.Now()), v, e)
	}
}

// portValues appends the values of ports matching the direction (InOut
// ports appear in both views) to dst.
func (sk *Skeleton) portValues(dst []signal.Value, vals []signal.Value, dir Direction) []signal.Value {
	for i, p := range sk.ports {
		if p.Dir == dir || p.Dir == InOut {
			dst = append(dst, vals[i])
		}
	}
	return dst
}

// AddEstimator registers a candidate estimator for one of the module's
// parameters — the paper's addEstimator, called from a component's
// constructor.
func (sk *Skeleton) AddEstimator(e estim.Estimator) {
	sk.estMu.Lock()
	defer sk.estMu.Unlock()
	if sk.candidates == nil {
		sk.candidates = make(map[estim.Parameter][]estim.Estimator)
	}
	sk.candidates[e.Parameter()] = append(sk.candidates[e.Parameter()], e)
}

// Candidates implements estim.Component.
func (sk *Skeleton) Candidates(p estim.Parameter) []estim.Estimator {
	sk.estMu.RLock()
	defer sk.estMu.RUnlock()
	return append([]estim.Estimator(nil), sk.candidates[p]...)
}

// SelectEstimator implements estim.Component: it stores the setup's
// choice in the per-setup estimator table (the paper's hash table keyed
// by setup controller).
func (sk *Skeleton) SelectEstimator(s *estim.Setup, p estim.Parameter, e estim.Estimator) {
	sk.estMu.Lock()
	defer sk.estMu.Unlock()
	m := sk.selected[s]
	if m == nil {
		if sk.selected == nil {
			sk.selected = make(map[*estim.Setup]map[estim.Parameter]estim.Estimator)
		}
		m = make(map[estim.Parameter]estim.Estimator)
		sk.selected[s] = m
	}
	m[p] = e
}

// AppendPortValues appends to dst the current values held by the
// module's ports of the given direction in ctx's run, in port-index
// order. Fault simulation uses this to capture the signal configuration
// at an IP component's inputs — the only design information forwarded
// to the provider — into storage it reuses across patterns.
func (sk *Skeleton) AppendPortValues(dst []signal.Value, ctx *sim.Context, dir Direction) []signal.Value {
	rs := sk.stateFor(ctx)
	for i, p := range sk.ports {
		if p.Dir == dir || p.Dir == InOut {
			v := rs.in[i]
			if p.Dir == Out {
				v = rs.out[i]
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// InputPorts returns the module's input ports in index order.
// Used only by tests: TestGoldenProviderAnswers, TestInputAndOutputPortLists.
func (sk *Skeleton) InputPorts() []*Port {
	var out []*Port
	for _, p := range sk.ports {
		if p.Dir == In || p.Dir == InOut {
			out = append(out, p)
		}
	}
	return out
}

// OutputPorts returns the module's output ports in index order.
func (sk *Skeleton) OutputPorts() []*Port {
	var out []*Port
	for _, p := range sk.ports {
		if p.Dir == Out || p.Dir == InOut {
			out = append(out, p)
		}
	}
	return out
}

// Ctx bundles the kernel context with the module it is delivering to,
// giving behaviors their API surface.
type Ctx struct {
	Sim *sim.Context
	sk  *Skeleton
	// rs caches the module's run state for the whole delivery, so port
	// reads and drives skip the slot lookup; nil resolves on demand.
	rs *runState
}

// state returns the module's run state in this context's run.
func (c *Ctx) state() *runState {
	if c.rs == nil {
		c.rs = c.sk.stateFor(c.Sim)
	}
	return c.rs
}

// Now returns the current simulation time.
func (c *Ctx) Now() sim.Time { return c.Sim.Now() }

// Drive sends value from the module's output port across its connector,
// delivering it to the peer module after delay time units. Driving an
// input port, an invalid payload, or a dangling connector is tolerated
// per the paper's semantics only for dangling connectors (no peer — the
// event is dropped); the first two panic as structural design errors.
func (c *Ctx) Drive(port *Port, value signal.Value, delay sim.Time) {
	if port.owner != c.sk {
		panic(fmt.Sprintf("module: %s driving foreign port %s.%s", c.sk.name, port.Module(), port.Name))
	}
	if port.Dir == In {
		panic(fmt.Sprintf("module: %s driving input port %s", c.sk.name, port.Name))
	}
	if port.conn != nil && port.conn.Validate != nil {
		if err := port.conn.Validate(value); err != nil {
			panic(err)
		}
	}
	rs := c.state()
	rs.out[port.Index] = value
	if port.conn == nil {
		return
	}
	peer := port.conn.peer(port)
	if peer == nil {
		return
	}
	c.Sim.PostSignal(c.Sim.Now()+delay, peer.owner, peer.owner.slot.Load(), peer.Index, value, c.sk.name)
}

// ScheduleSelf posts a self-trigger token for the module.
func (c *Ctx) ScheduleSelf(delay sim.Time, tag string, payload any) {
	c.Sim.Post(&sim.SelfToken{T: c.Sim.Now() + delay, Dst: c.sk, Tag: tag, Payload: payload})
}

// Input returns the current value on a port (nil if never driven).
func (c *Ctx) Input(port *Port) signal.Value {
	return c.state().in[port.Index]
}

// State returns the behavior-private per-run state.
func (c *Ctx) State() any { return c.state().user }

// SetState stores behavior-private per-run state.
func (c *Ctx) SetState(v any) { c.state().user = v }

// InputWordOn reads the port's current value as a word, reporting whether
// a known word of the port's width is present.
func (c *Ctx) InputWordOn(port *Port) (signal.Word, bool) {
	v := c.Input(port)
	wv, ok := v.(signal.WordValue)
	if !ok || !wv.W.Known() {
		return signal.Word{}, false
	}
	return wv.W, true
}

// InputBitOn reads the port's current value as a bit (BX if absent).
func (c *Ctx) InputBitOn(port *Port) signal.Bit {
	v := c.Input(port)
	bv, ok := v.(signal.BitValue)
	if !ok {
		return signal.BX
	}
	return bv.B
}
