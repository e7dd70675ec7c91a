package module

import (
	"math/rand"
	"sync"

	"repro/internal/signal"
	"repro/internal/sim"
)

// RandomPrimaryInput drives a connector with a fresh pseudo-random word
// every period, for a configurable number of patterns — the stimulus
// generator of the paper's Figure 2 example. The sequence is a pure
// function of the seed, so concurrent schedulers over the same design see
// identical stimuli.
type RandomPrimaryInput struct {
	*Skeleton
	out    *Port
	width  int
	seed   int64
	count  int
	period sim.Time
}

// randState is the generator's per-scheduler state.
type randState struct {
	rng  *rand.Rand
	sent int
}

// NewRandomPrimaryInput returns a generator named name producing count
// width-bit random words on out, one every period time units starting at
// time period.
func NewRandomPrimaryInput(name string, width int, seed int64, count int, period sim.Time, out *Connector) *RandomPrimaryInput {
	m := &RandomPrimaryInput{width: width, seed: seed, count: count, period: period}
	m.Skeleton = NewSkeleton(name, m)
	m.out = m.AddPort("out", Out, width, out)
	return m
}

// ProcessInputEvent implements Behavior; the generator has no inputs.
func (m *RandomPrimaryInput) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {}

// Reset seeds the per-scheduler generator and the first self-trigger.
func (m *RandomPrimaryInput) Reset(ctx *Ctx) {
	ctx.SetState(&randState{rng: rand.New(rand.NewSource(m.seed))})
	if m.count > 0 {
		ctx.ScheduleSelf(m.period, "pattern", nil)
	}
}

// ProcessSelfEvent emits the next random word and reschedules.
func (m *RandomPrimaryInput) ProcessSelfEvent(ctx *Ctx, tok *sim.SelfToken) {
	st := ctx.State().(*randState)
	if st.sent >= m.count {
		return
	}
	st.sent++
	ctx.Drive(m.out, signal.WordValue{W: signal.WordFromUint64(st.rng.Uint64(), m.width)}, 0)
	if st.sent < m.count {
		ctx.ScheduleSelf(m.period, "pattern", nil)
	}
}

// PatternInput drives a connector with a fixed sequence of values, one
// per period — the deterministic stimulus used by tests and fault
// simulation (the user's test sequence).
type PatternInput struct {
	*Skeleton
	out      *Port
	patterns []signal.Value
	period   sim.Time
}

// patState is the per-scheduler cursor.
type patState struct{ next int }

// NewPatternInput returns a stimulus module replaying patterns on out.
func NewPatternInput(name string, width int, patterns []signal.Value, period sim.Time, out *Connector) *PatternInput {
	m := &PatternInput{patterns: patterns, period: period}
	m.Skeleton = NewSkeleton(name, m)
	m.out = m.AddPort("out", Out, width, out)
	return m
}

// ProcessInputEvent implements Behavior; the generator has no inputs.
func (m *PatternInput) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {}

// Reset seeds the first self-trigger.
func (m *PatternInput) Reset(ctx *Ctx) {
	ctx.SetState(&patState{})
	if len(m.patterns) > 0 {
		ctx.ScheduleSelf(m.period, "pattern", nil)
	}
}

// ProcessSelfEvent emits the next pattern and reschedules.
func (m *PatternInput) ProcessSelfEvent(ctx *Ctx, tok *sim.SelfToken) {
	st := ctx.State().(*patState)
	if st.next >= len(m.patterns) {
		return
	}
	ctx.Drive(m.out, m.patterns[st.next], 0)
	st.next++
	if st.next < len(m.patterns) {
		ctx.ScheduleSelf(m.period, "pattern", nil)
	}
}

// ConstInput drives a single constant value at simulation start.
type ConstInput struct {
	*Skeleton
	out   *Port
	value signal.Value
}

// NewConstInput returns a module driving value once at time 1.
func NewConstInput(name string, width int, value signal.Value, out *Connector) *ConstInput {
	m := &ConstInput{value: value}
	m.Skeleton = NewSkeleton(name, m)
	m.out = m.AddPort("out", Out, width, out)
	return m
}

// ProcessInputEvent implements Behavior; the module has no inputs.
func (m *ConstInput) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {}

// Reset seeds the single emission.
func (m *ConstInput) Reset(ctx *Ctx) { ctx.ScheduleSelf(1, "const", nil) }

// ProcessSelfEvent emits the constant.
func (m *ConstInput) ProcessSelfEvent(ctx *Ctx, tok *sim.SelfToken) {
	ctx.Drive(m.out, m.value, 0)
}

// Observation is one value seen by a PrimaryOutput.
type Observation struct {
	Time  sim.Time
	Value signal.Value
}

// PrimaryOutput records every value arriving on its input, per scheduler.
// Histories survive the end of a run (they are the simulation's product)
// until ClearHistory is called.
type PrimaryOutput struct {
	*Skeleton
	in *Port

	histMu  sync.Mutex
	history map[sim.SchedulerID][]Observation
	// OnValue, when non-nil, is invoked for every observed value.
	OnValue func(ctx *Ctx, obs Observation)
}

// NewPrimaryOutput returns an output monitor on in.
func NewPrimaryOutput(name string, width int, in *Connector) *PrimaryOutput {
	m := &PrimaryOutput{history: make(map[sim.SchedulerID][]Observation)}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, width, in)
	return m
}

// ProcessInputEvent records the observation.
func (m *PrimaryOutput) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	obs := Observation{Time: ctx.Now(), Value: ev.Value}
	m.histMu.Lock()
	m.history[ctx.Sim.SchedulerID()] = append(m.history[ctx.Sim.SchedulerID()], obs)
	m.histMu.Unlock()
	if m.OnValue != nil {
		m.OnValue(ctx, obs)
	}
}

// History returns the observations recorded for one scheduler.
func (m *PrimaryOutput) History(id sim.SchedulerID) []Observation {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	return append([]Observation(nil), m.history[id]...)
}

// LastHistory returns the observations of the most recent run when only
// one history is present; it returns nil when zero or several runs have
// recorded output (use History with an explicit scheduler ID then).
func (m *PrimaryOutput) LastHistory() []Observation {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if len(m.history) != 1 {
		return nil
	}
	for _, h := range m.history {
		return append([]Observation(nil), h...)
	}
	return nil
}

// ReleaseHistory discards the observations of one scheduler once its run's
// outputs have been consumed, so long-running fault simulations (one fresh
// scheduler per injection) do not accumulate histories across injections.
func (m *PrimaryOutput) ReleaseHistory(id sim.SchedulerID) {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	delete(m.history, id)
}

// HistoryCount returns the number of schedulers with recorded
// observations — the leak metric regression tests watch.
func (m *PrimaryOutput) HistoryCount() int {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	return len(m.history)
}

// ClearHistory discards all recorded observations.
func (m *PrimaryOutput) ClearHistory() {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	m.history = make(map[sim.SchedulerID][]Observation)
}
