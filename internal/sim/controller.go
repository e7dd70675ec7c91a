package sim

import (
	"slices"
	"sync/atomic"
)

// Stats summarizes one completed simulation run.
type Stats struct {
	// Scheduler is the scheduler the run used. Its state slots hold what
	// the run left (primary-output histories, Scheduler.SlotValue) until
	// it runs again.
	Scheduler *Scheduler
	EndTime   Time
	Delivered uint64
	MaxQueue  int
	Err       error
}

// Controller launches and coordinates schedulers over a fixed set of
// handlers (the design's modules). One controller can run a single
// simulation, or many concurrent simulations of the same design — each on
// its own scheduler and goroutine, each with its own setup — without any
// interference, because module state lives in the running scheduler's
// state slots (Context.SlotAt).
type Controller struct {
	handlers []Handler
	// Seed populates the run's scheduler with initial stimuli before the
	// run starts (primary-input tokens, first clock edges, ...). It runs
	// after module ResetState hooks.
	Seed func(ctx *Context)
	// Options bound every run started by this controller.
	Options RunOptions
	// EventLimit, when nonzero, overrides DefaultEventLimit per run.
	EventLimit uint64
}

// NoSlot is the index of a handler without a fixed slot index. It fails
// every table check, so lookups for it take the map.
const NoSlot = ^uint32(0)

// SlotIndex is the fixed dense index a handler takes from the first
// controller built over it: its position in that controller's handler
// list, which every run of the controller makes its position in the
// scheduler's handler table (layout). Posts and slot lookups that pass
// it (Context.PostSignal, Context.SlotAt) then skip the handler map.
//
// The zero value is unset. The index is claimed once, by compare-and-
// swap, because controllers over one design may be built while runs
// over it are under way (each virtual fault simulation Run builds one,
// and Runs over one design may overlap). A handler that a later
// controller lists at another position
// keeps its first index; on that controller's runs the table check
// fails and it takes the map.
type SlotIndex struct {
	v atomic.Uint32 // index+1; 0 is unset
}

// Load returns the claimed index, or NoSlot while none is claimed.
func (x *SlotIndex) Load() uint32 { return x.v.Load() - 1 }

// Indexed is implemented by handlers that keep a SlotIndex.
type Indexed interface {
	Handler
	SlotIndex() *SlotIndex
}

// NewController returns a controller over the given handlers.
func NewController(handlers ...Handler) *Controller {
	c := &Controller{}
	c.AddHandlers(handlers...)
	return c
}

// AddHandlers appends more handlers (e.g. after elaborating a hierarchy).
// Each Indexed handler claims its list position as its SlotIndex unless
// it already holds one.
func (c *Controller) AddHandlers(hs ...Handler) {
	for i, h := range hs {
		if ix, ok := h.(Indexed); ok {
			ix.SlotIndex().v.CompareAndSwap(0, uint32(len(c.handlers)+i)+1)
		}
	}
	c.handlers = append(c.handlers, hs...)
}

// StartOn runs one simulation to completion on sched, recycling it first
// so the run is observationally one on a new scheduler (fresh
// SchedulerID, empty event store, no overrides or hooks) while reusing
// its storage. It is the controller's one run method: a caller keeps one
// scheduler per goroutine and passes it to every run, and fans
// concurrent runs out with a Pool. setup is attached to the run's
// context and travels with every token delivery (nil for
// estimation-free runs); configure, if non-nil, may register instant
// hooks or overrides on the scheduler before the run starts.
func (c *Controller) StartOn(sched *Scheduler, setup any, configure func(*Scheduler)) Stats {
	sched.recycle()
	sched.layout(c.handlers)
	sched.EventLimit = c.EventLimit
	if configure != nil {
		configure(sched)
	}
	ctx := &sched.runCtx
	*ctx = Context{sched: sched, Setup: setup}
	sched.Reset(ctx, c.handlers)
	if c.Seed != nil {
		c.Seed(ctx)
	}
	err := sched.Run(ctx, c.Options)
	return Stats{
		Scheduler: sched,
		EndTime:   sched.Now(),
		Delivered: sched.Delivered(),
		MaxQueue:  sched.MaxQueueLen(),
		Err:       err,
	}
}

// layout fixes the front of the scheduler's handler table to hs, so
// hs[i] has dense index i and its SlotIndex, if it claimed i, holds on
// this run. A table that already begins with hs — a recycled
// scheduler's earlier run of the same list — is kept as it is, and
// nothing is written. Otherwise the table is rebuilt: listed handlers
// keep their slot contents, and the rest are dropped (they re-intern
// with an empty slot if the run meets them). A handler listed twice
// keeps its first position.
func (s *Scheduler) layout(hs []Handler) {
	if len(s.interned) >= len(hs) && slices.Equal(s.interned[:len(hs)], hs) {
		return
	}
	interned := slices.Clone(hs)
	slots := make([]any, len(hs))
	idx := make(map[Handler]uint32, len(hs))
	for i, h := range hs {
		if _, dup := idx[h]; dup {
			continue
		}
		idx[h] = uint32(i)
		if j, ok := s.internIdx[h]; ok {
			slots[i] = s.slots[j]
		}
	}
	s.interned, s.slots, s.internIdx = interned, slots, idx
}
