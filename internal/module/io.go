package module

import (
	"math/rand"

	"repro/internal/signal"
	"repro/internal/sim"
)

// RandomPrimaryInput drives a connector with a fresh pseudo-random word
// every period, for a configurable number of patterns — the stimulus
// generator of the paper's Figure 2 example. The sequence is a pure
// function of the seed, drawn once at construction and kept (about 40 B
// per pattern). Every scheduler replays the same immutable words through
// the embedded PatternInput, whose per-run state is a cursor.
type RandomPrimaryInput struct {
	*PatternInput
}

// NewRandomPrimaryInput returns a generator named name producing count
// width-bit random words on out, one every period time units starting at
// time period.
func NewRandomPrimaryInput(name string, width int, seed int64, count int, period sim.Time, out *Connector) *RandomPrimaryInput {
	rng := rand.New(rand.NewSource(seed))
	words := make([]signal.Value, max(count, 0))
	for i := range words {
		words[i] = signal.WordValue{W: signal.WordFromUint64(rng.Uint64(), width)}
	}
	return &RandomPrimaryInput{NewPatternInput(name, width, words, period, out)}
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

// PrimaryOutput records every value arriving on its input. A run's
// observations are the output's run state on the run's scheduler, like
// any module's per-run state: History reads them after the run, until
// that scheduler runs again.
type PrimaryOutput struct {
	*Skeleton
	in *Port
	// OnValue, when non-nil, is invoked for every observed value.
	OnValue func(ctx *Ctx, obs Observation)
}

// outputHistory is a PrimaryOutput's per-run state. A recycled
// scheduler's next run empties it and keeps its storage.
type outputHistory struct{ obs []Observation }

// recycle empties the history for a new run, releasing the values the
// storage still references.
func (h *outputHistory) recycle() {
	clear(h.obs[:cap(h.obs)])
	h.obs = h.obs[:0]
}

// NewPrimaryOutput returns an output monitor on in.
func NewPrimaryOutput(name string, width int, in *Connector) *PrimaryOutput {
	m := &PrimaryOutput{}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, width, in)
	return m
}

// ProcessInputEvent records the observation.
func (m *PrimaryOutput) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	obs := Observation{Time: ctx.Now(), Value: ev.Value}
	h, _ := ctx.State().(*outputHistory)
	if h == nil {
		h = &outputHistory{}
		ctx.SetState(h)
	}
	h.obs = append(h.obs, obs)
	if m.OnValue != nil {
		m.OnValue(ctx, obs)
	}
}

// History returns the observations recorded in s's last run, in order;
// it is empty when that run never reached the output. The slice is s's
// storage, not a copy: it is valid until s runs again, and read-only.
// For a run of a Simulation that is until the next Start or
// StartConcurrent on it, which reruns its lane schedulers.
func (m *PrimaryOutput) History(s *sim.Scheduler) []Observation {
	if h, ok := m.stateOn(s).(*outputHistory); ok {
		return h.obs
	}
	return nil
}

// ReleaseHistory empties the history of s's last run before s runs
// again. It is optional — the next run empties it anyway — and a slice
// History already returned stays readable.
func (m *PrimaryOutput) ReleaseHistory(s *sim.Scheduler) {
	if h, ok := m.stateOn(s).(*outputHistory); ok {
		h.obs = h.obs[:0]
	}
}
