// Package sim implements gocad's multilevel event-driven simulation
// kernel: the token/scheduler machinery of the JavaCAD backplane.
//
// The superclass for any event is a token; a scheduler handles scheduling
// and delivery of all tokens. Multiple schedulers can be instantiated and
// run in concurrent goroutines over the same design without interference:
// every module keeps its per-run state in a slot owned by the scheduler
// running it (Context.Slot), and a module can schedule a new
// token only while it is handling one — the newly created token is
// automatically joined to the same scheduler. Tokens are not only
// functional events (changes of signal values): they also implement a
// general message-passing engine used for estimation, setup control, and
// module self-triggering.
package sim

import (
	"fmt"

	"repro/internal/signal"
)

// Time is the discrete simulation time, in abstract time units. A "time
// instant" is the set of all tokens that share one Time value.
type Time int64

// Handler is anything that can receive tokens from a scheduler — in
// practice, design modules. Handlers must be safe for concurrent use by
// multiple schedulers: all mutable simulation state must live in the
// delivering scheduler's state slot for the handler (Context.Slot),
// never in the handler itself.
type Handler interface {
	// HandlerName identifies the handler in diagnostics and traces.
	HandlerName() string
	// HandleToken processes one token delivered by a scheduler. It may
	// schedule follow-up tokens through ctx.
	HandleToken(ctx *Context, tok Token)
}

// Resettable is implemented by handlers that need per-run initialization
// before a simulation run starts — e.g. autonomous modules (clock
// generators) that must seed their first self-trigger.
type Resettable interface {
	// ResetState initializes the handler's state slot for ctx's run.
	ResetState(ctx *Context)
}

// Token is the superclass of every event in the kernel.
type Token interface {
	// When returns the simulation time the token is scheduled for.
	When() Time
	// Target returns the handler the token must be delivered to.
	Target() Handler
}

// SignalToken is a functional event: a signal value arriving at a
// handler's input port. A module driving an output port posts one by
// value (Context.PostSignal); the delivering scheduler hands the handler
// a carrier that is valid only until HandleToken returns.
type SignalToken struct {
	T     Time
	Dst   Handler
	Port  int          // index of the destination port on Dst
	Value signal.Value // the new signal value
	Src   string       // producing module, for traces
}

// When returns the scheduled time.
func (t *SignalToken) When() Time { return t.T }

// Target returns the destination handler.
func (t *SignalToken) Target() Handler { return t.Dst }

// String renders the token for traces.
func (t *SignalToken) String() string {
	return fmt.Sprintf("signal@%d %s->%s.port[%d]=%s", t.T, t.Src, t.Dst.HandlerName(), t.Port, t.Value)
}

// EstimationToken asks a module to run the estimators selected by the
// current setup and append their values to the estimation record. The
// current setup always travels with the token, enabling runtime retrieval
// of the desired estimators (the paper's per-setup hash table lookup).
type EstimationToken struct {
	T     Time
	Dst   Handler
	Setup any // the estimation setup (an *estim.Setup); opaque to the kernel
}

// When returns the scheduled time.
func (t *EstimationToken) When() Time { return t.T }

// Target returns the destination handler.
func (t *EstimationToken) Target() Handler { return t.Dst }

// ControlToken carries out-of-band design manipulation: setup
// distribution, parameter collection, tracing control, and similar
// message-passing uses.
type ControlToken struct {
	T       Time
	Dst     Handler
	Command string
	Payload any
}

// When returns the scheduled time.
func (t *ControlToken) When() Time { return t.T }

// Target returns the destination handler.
func (t *ControlToken) Target() Handler { return t.Dst }

// SelfToken is a token a module schedules for itself — the self-trigger
// mechanism that implements autonomous components such as clock
// generators.
type SelfToken struct {
	T       Time
	Dst     Handler
	Tag     string
	Payload any
}

// When returns the scheduled time.
func (t *SelfToken) When() Time { return t.T }

// Target returns the destination handler.
func (t *SelfToken) Target() Handler { return t.Dst }
