package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/signal"
)

// SchedulerID uniquely identifies one scheduler run for the lifetime of
// the process: NewScheduler draws one, and recycling a scheduler for its
// next run draws another. Handlers stamp the state they keep in a slot
// with it, so state an earlier run of a recycled scheduler left behind
// is told apart from the current run's (Context.Slot).
type SchedulerID uint64

var schedulerIDs atomic.Uint64

// ErrEventLimit is returned by a run when the configured event budget is
// exhausted — the guard against nonterminating designs (e.g. zero-delay
// combinational loops).
var ErrEventLimit = errors.New("sim: event limit exceeded")

// scheduledToken pairs a token with a sequence number so that tokens
// posted at the same instant are delivered in posting order, keeping runs
// deterministic.
type scheduledToken struct {
	tok Token
	seq uint64
}

// tokenQueue is a binary min-heap ordered by (time, seq), with inlined
// index-based sift operations — the event store's spill lane, carrying
// generic tokens and far-future signal tokens (calendar.go). The
// container/heap interface funnels every element through `any` on
// Push/Pop, which boxes the scheduledToken — one heap allocation per
// posted token; the direct sift-up/sift-down below keeps the element a
// plain struct.
type tokenQueue []scheduledToken

func (q tokenQueue) less(i, j int) bool {
	if q[i].tok.When() != q[j].tok.When() {
		return q[i].tok.When() < q[j].tok.When()
	}
	return q[i].seq < q[j].seq
}

// siftUp restores the heap property after appending at index i.
func (q tokenQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (q tokenQueue) siftDown(i int) {
	n := len(q)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if right := kid + 1; right < n && q.less(right, kid) {
			kid = right
		}
		if !q.less(kid, i) {
			return
		}
		q[i], q[kid] = q[kid], q[i]
		i = kid
	}
}

// push inserts a scheduled token.
func (q *tokenQueue) push(it scheduledToken) {
	*q = append(*q, it)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest (time, seq) token.
func (q *tokenQueue) popMin() scheduledToken {
	old := *q
	it := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = scheduledToken{} // release the Token for GC
	next := old[:n]
	*q = next
	next.siftDown(0)
	return it
}

// InstantHook is invoked by the scheduler when a simulation time instant
// completes (all tokens at that time have been handled, and either the
// queue is empty or the next token is strictly later). This is the point
// where the estimation controller delivers estimation tokens to every
// module "at the end of each simulation time instant".
type InstantHook func(ctx *Context, completed Time)

// Scheduler owns one event store and delivers tokens in nondecreasing
// time order. A Scheduler is confined to a single goroutine; concurrency
// comes from running several Schedulers, never from sharing one.
//
// The store has two lanes (calendar.go): a 64-instant calendar of
// struct-of-arrays buckets for near-future signal tokens, and the spill
// min-heap for everything else. Both lanes order by the same (time, seq)
// key, so delivery order — and with it every fingerprint — is identical
// to the heap-only kernel's.
type Scheduler struct {
	id  SchedulerID
	seq uint64
	now Time
	// runCtx is the context of the run Controller.StartOn last started
	// on this scheduler, rewritten for each run.
	runCtx Context

	// sig is the calendar: bucket i holds the signal tokens of the unique
	// time t in [now, now+sigWindow) with t%64 == i, decomposed into flat
	// lanes. sigMask has bit i set iff bucket i is occupied.
	sig     [sigBuckets]sigBucket
	sigMask uint64

	// slab backs first-touch bucket lanes (growBucketLanes), amortizing
	// lane setup to five allocations per laneSlabBuckets first touches
	// instead of five per bucket.
	slab laneSlab

	// spill holds generic tokens (Self/Estimation/Control) and signal
	// tokens scheduled beyond the calendar window, ordered by (time, seq).
	spill tokenQueue

	// pending counts undelivered tokens across both lanes.
	pending int

	// interned assigns each destination handler a dense index so signal
	// lanes store 4-byte indices instead of interface headers. A
	// controller's run fixes the front of the table to its handler list
	// (layout), so a handler holding a SlotIndex reaches its entry
	// without the map; the map serves every other handler.
	interned  []Handler
	internIdx map[Handler]uint32

	// slots is the scheduler-owned state table: slots[i] holds the
	// per-run state of handler interned[i] (Context.Slot). Indexed by the
	// same dense handler index as the calendar lanes, so a lookup is a
	// slice load, and only this scheduler's Context can reach it.
	slots []any

	// popScratch is the delivery carrier for calendar-stored signal
	// tokens: popBucket materializes lane entries into it, deliver hands
	// it to the handler, and the next pop overwrites it.
	popScratch SignalToken

	// overrides replaces the event handling of specific handlers for this
	// scheduler only. Virtual fault simulation uses this to make a faulty
	// module emit a fixed erroneous output pattern regardless of inputs.
	overrides map[Handler]Handler

	hooks []InstantHook

	// Stats
	delivered uint64
	maxQueue  int

	// EventLimit bounds the number of delivered tokens per run;
	// 0 means the DefaultEventLimit.
	EventLimit uint64
}

// DefaultEventLimit is the per-run token budget used when a Scheduler's
// EventLimit is left at zero.
const DefaultEventLimit = 50_000_000

// NewScheduler returns an empty scheduler with a fresh unique identifier.
func NewScheduler() *Scheduler {
	return &Scheduler{
		id:        SchedulerID(schedulerIDs.Add(1)),
		overrides: make(map[Handler]Handler),
	}
}

// ID returns the scheduler's process-unique identifier.
func (s *Scheduler) ID() SchedulerID { return s.id }

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Delivered returns the number of tokens delivered so far.
func (s *Scheduler) Delivered() uint64 { return s.delivered }

// MaxQueueLen returns the high-water mark of the pending-token queue.
func (s *Scheduler) MaxQueueLen() int { return s.maxQueue }

// Override replaces target's event handling with replacement for this
// scheduler only. Passing a nil replacement removes the override. Other
// schedulers running over the same design are unaffected — this is the
// property that lets virtual fault simulation inject faults on its own
// scheduler with no save/restore of the fault-free run. Recycling the
// scheduler removes every override.
func (s *Scheduler) Override(target, replacement Handler) {
	if replacement == nil {
		delete(s.overrides, target)
		return
	}
	s.overrides[target] = replacement
}

// AddInstantHook registers a hook called at the completion of every
// simulation time instant.
func (s *Scheduler) AddInstantHook(h InstantHook) { s.hooks = append(s.hooks, h) }

// Post enqueues a token. Posting a token in the past (before the
// scheduler's current time) is a programming error and panics, because it
// would silently corrupt causality.
func (s *Scheduler) Post(tok Token) {
	if tok.When() < s.now {
		pastTimePanic(tok.When(), s.now)
	}
	s.seq++
	s.enqueue(tok, s.seq)
}

// pastTimePanic reports a token posted before the current time. Outlined
// behind //go:noinline so its fmt boxing stays off PostSignal's
// //gocad:noalloc path.
//
//go:noinline
func pastTimePanic(when, now Time) {
	panic(fmt.Sprintf("sim: token scheduled at %d, before current time %d", when, now))
}

// nextEventTime returns the time of the earliest pending token, or
// ok=false when the store is empty: the minimum of the calendar's
// occupancy scan and the spill heap's root.
//
//gocad:noalloc
func (s *Scheduler) nextEventTime() (Time, bool) {
	ct, cok := s.sigMinTime()
	if len(s.spill) == 0 {
		return ct, cok
	}
	ht := s.spill[0].tok.When()
	if !cok || ht < ct {
		return ht, true
	}
	return ct, true
}

// Pending returns the number of tokens waiting across both lanes of the
// event store (calendar buckets plus the spill heap).
func (s *Scheduler) Pending() int { return s.pending }

// Context gives a handler controlled access to the scheduler that is
// delivering a token to it. A module can schedule a new token only when
// it receives one — i.e. only through the Context — and the new token is
// automatically joined to the same scheduler. This is the kernel's
// no-interference guarantee.
type Context struct {
	sched *Scheduler
	// Setup is the estimation setup active for this run (an *estim.Setup),
	// carried with every delivery so modules can retrieve the estimators
	// selected for them at runtime. It may be nil for setup-free runs.
	Setup any
	// Trace, when non-nil, receives one line per delivered token.
	Trace func(string)
}

// SchedulerID returns the identifier of the run this context delivers
// for.
func (c *Context) SchedulerID() SchedulerID { return c.sched.id }

// Slot returns the scheduler's state slot for handler h: the place a
// handler keeps its mutable per-run state (the paper's per-scheduler
// lookup table, keyed here by handler inside the scheduler instead of by
// scheduler inside the module). A slot starts nil and is reachable only
// through this scheduler — its contexts during a run, SlotValue between
// runs — so runs on different schedulers cannot see each other's state.
//
// Slots survive recycling (Controller.StartOn) so their contents can be
// reused; a handler that reuses them must re-initialize them when
// SchedulerID changes. A controller's run fixes the table for its
// handler list when the run starts, so the pointer moves only when the
// run reaches a handler outside that list (or the scheduler runs with
// no controller): load or store through it at once, never retain it.
//
//gocad:noalloc
func (c *Context) Slot(h Handler) *any {
	s := c.sched
	return &s.slots[s.internHandler(h)]
}

// SlotAt is Slot for a handler that holds a SlotIndex: idx is its
// SlotIndex.Load. When the table holds h at idx — every run of a
// controller listing h where h claimed its index — the lookup is one
// compare and a slice load; otherwise it falls back to Slot's map.
//
//gocad:noalloc
func (c *Context) SlotAt(h Handler, idx uint32) *any {
	s := c.sched
	return &s.slots[s.slotIndex(h, idx)]
}

// SlotValue returns what handler h's state slot on s holds — after a
// run, what the run left there — or nil when s never met h. idx is h's
// SlotIndex.Load, or NoSlot, as for Context.SlotAt. Unlike Slot it never
// interns h, so a read leaves the handler table as it was. Like every
// slot, it belongs to the goroutine running s: read it between runs.
//
//gocad:noalloc
func (s *Scheduler) SlotValue(h Handler, idx uint32) any {
	if idx < uint32(len(s.interned)) && s.interned[idx] == h {
		return s.slots[idx]
	}
	if i, ok := s.internIdx[h]; ok {
		return s.slots[i]
	}
	return nil
}

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.sched.now }

// Post schedules a follow-up token on the same scheduler.
func (c *Context) Post(tok Token) { c.sched.Post(tok) }

// PostSignal posts a signal token by value: v arrives at port of dst at
// time t, from src. idx is dst's SlotIndex.Load, or NoSlot for a handler
// without one; it only spares the lookup and is checked like SlotAt's.
// A time inside the calendar window goes straight into the calendar
// lanes and allocates nothing; a later one spills a heap SignalToken.
// Like Post, a time before now panics.
//
//gocad:noalloc
func (c *Context) PostSignal(t Time, dst Handler, idx uint32, port int, v signal.Value, src string) {
	s := c.sched
	if t < s.now {
		pastTimePanic(t, s.now)
	}
	s.seq++
	if t >= s.now+sigWindow {
		s.spillSignal(t, dst, port, v, src)
		return
	}
	s.pushLane(t, s.slotIndex(dst, idx), port, v, src, s.seq)
}

// spillSignal queues a signal token beyond the calendar window on the
// spill heap. Outlined behind //go:noinline so the token allocation
// stays off PostSignal's //gocad:noalloc path.
//
//go:noinline
func (s *Scheduler) spillSignal(t Time, dst Handler, port int, v signal.Value, src string) {
	s.enqueue(&SignalToken{T: t, Dst: dst, Port: port, Value: v, Src: src}, s.seq)
}

// Scheduler exposes the underlying scheduler, for controllers that need
// override management during a run (fault injection).
func (c *Context) Scheduler() *Scheduler { return c.sched }

// deliver dispatches one token, honouring per-scheduler overrides.
func (s *Scheduler) deliver(ctx *Context, tok Token) {
	s.delivered++
	dst := tok.Target()
	if len(s.overrides) != 0 {
		if repl, ok := s.overrides[dst]; ok {
			dst = repl
		}
	}
	if ctx.Trace != nil {
		if str, ok := tok.(fmt.Stringer); ok {
			ctx.Trace(str.String())
		} else {
			ctx.Trace(fmt.Sprintf("token@%d -> %s", tok.When(), dst.HandlerName()))
		}
	}
	dst.HandleToken(ctx, tok)
}

// deliverScratch is deliver specialized for the calendar's materialized
// carrier: popBucket has just filled s.popScratch, so the destination
// is already in hand (no Target call).
//
//gocad:noalloc
func (s *Scheduler) deliverScratch(ctx *Context) {
	s.delivered++
	dst := s.popScratch.Dst
	if len(s.overrides) != 0 {
		if repl, ok := s.overrides[dst]; ok {
			dst = repl
		}
	}
	if ctx.Trace != nil {
		ctx.Trace(s.popScratch.String())
	}
	dst.HandleToken(ctx, &s.popScratch)
}

// RunOptions bounds a scheduler run.
type RunOptions struct {
	// Until stops the run before delivering any token strictly later than
	// this time. Zero means no time bound.
	Until Time
	// MaxInstants stops the run after this many distinct time instants
	// have completed. Zero means no instant bound.
	MaxInstants int
}

// Run delivers tokens in time order until the queue drains or a bound in
// opts is hit. ctx must have been created by the scheduler's Context
// method (or be nil, in which case a fresh context is used).
func (s *Scheduler) Run(ctx *Context, opts RunOptions) error {
	if ctx == nil {
		ctx = s.NewContext()
	}
	limit := s.EventLimit
	if limit == 0 {
		limit = DefaultEventLimit
	}
	return s.drain(ctx, opts, limit)
}

// drain is Run's instant loop (DESIGN.md §12), split from Run so the
// context fallback's allocation stays out of the annotated body. Each
// outer pass advances the clock to the earliest pending instant, then
// delivers tokens due at it — calendar bucket entries and spill-heap
// tokens merged by sequence stamp — until the instant is dry. The old
// kernel's batch scratch buffer is gone: calendar pops are O(1) lane
// reads with no re-sift to amortize, so pop-one-deliver-one is already
// the fast path.
//
//gocad:noalloc
func (s *Scheduler) drain(ctx *Context, opts RunOptions, limit uint64) error {
	budget := limit
	instants := 0
	for s.pending > 0 {
		next, _ := s.nextEventTime()
		if opts.Until != 0 && next > opts.Until {
			return nil
		}
		// Post refuses past-time tokens, so next >= now.
		s.now = next
		// The bucket addressing s.now is stable for the whole instant.
		// When both lanes hold tokens due now, the lower sequence stamp
		// wins — the merge that keeps two-lane delivery order identical
		// to the single heap's (time, seq) order.
		b := s.bucketFor(s.now)
		for {
			bucketDue := b.head < b.n && b.time == s.now
			spillDue := len(s.spill) > 0 && s.spill[0].tok.When() == s.now
			if !bucketDue && !spillDue {
				break
			}
			if budget == 0 {
				return eventLimitError(limit, s.now)
			}
			budget--
			if bucketDue && (!spillDue || b.seqs[b.head] < s.spill[0].seq) {
				s.popBucket(b)
				s.deliverScratch(ctx)
			} else {
				it := s.spill.popMin()
				s.pending--
				s.deliver(ctx, it.tok)
			}
		}
		// The loop above exits only when nothing remains at s.now — a
		// delivery that reposted into this instant keeps it running — so
		// the instant is complete and its hooks fire.
		for _, h := range s.hooks {
			h(ctx, s.now)
		}
		instants++
		if opts.MaxInstants != 0 && instants >= opts.MaxInstants {
			return nil
		}
	}
	return nil
}

// eventLimitError builds the runaway-simulation error. Outlined behind
// //go:noinline so its fmt boxing stays off drain's //gocad:noalloc
// steady-state path.
//
//go:noinline
func eventLimitError(limit uint64, now Time) error {
	return fmt.Errorf("%w (limit %d at time %d)", ErrEventLimit, limit, now)
}

// NewContext returns a Context bound to this scheduler.
func (s *Scheduler) NewContext() *Context { return &Context{sched: s} }

// Reset invokes ResetState on every handler that supports it, giving
// modules the chance to (re)initialize their state slot and autonomous
// modules the chance to seed their first self-trigger for this run.
func (s *Scheduler) Reset(ctx *Context, handlers []Handler) {
	if ctx == nil {
		ctx = s.NewContext()
	}
	for _, h := range handlers {
		if r, ok := h.(Resettable); ok {
			r.ResetState(ctx)
		}
	}
}

// recycle prepares a used scheduler for its next run so that the run is
// observationally one on a NewScheduler: a fresh SchedulerID, an empty
// event store, a zero clock, sequence and counters, and no overrides,
// hooks or event limit. Pending calendar entries and spill tokens are
// zeroed. What it keeps is storage: calendar lanes and slab, the handler
// intern table and the state slots (whose owners re-initialize them on
// the ID change, see Context.Slot).
func (s *Scheduler) recycle() {
	s.id = SchedulerID(schedulerIDs.Add(1))
	for m := s.sigMask; m != 0; m &= m - 1 {
		b := &s.sig[bits.TrailingZeros64(m)]
		clear(b.vals[b.head:b.n])
		clear(b.srcs[b.head:b.n])
		b.reset()
	}
	s.sigMask = 0
	clear(s.spill)
	s.spill = s.spill[:0]
	s.popScratch = SignalToken{}
	clear(s.overrides)
	clear(s.hooks)
	s.hooks = s.hooks[:0]
	s.seq, s.now, s.pending = 0, 0, 0
	s.delivered, s.maxQueue, s.EventLimit = 0, 0, 0
}
