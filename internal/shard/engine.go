package shard

import (
	"fmt"
	"sort"

	"repro/internal/estim"
	"repro/internal/module"
	"repro/internal/sim"
)

// DefaultWindow is the conservative synchronization window used when
// Options.Window is zero: the maximum number of consecutive simulation
// instants a solo shard may process between barriers. Any positive value
// yields bit-identical results; the window only trades barrier frequency
// against runahead.
const DefaultWindow = 64

// Options parameterizes a sharded run.
type Options struct {
	// Shards is the number of scheduler instances the design is cut
	// into; values below 1 run a single shard (still through the
	// coordinator, which is the baseline the determinism matrix compares
	// against).
	Shards int
	// Window is the conservative synchronization window (instants of
	// solo runahead between barriers); 0 uses DefaultWindow, 1 forces a
	// barrier at every instant.
	Window int
	// Workers bounds the sim.Pool fanning shard deliveries out per delta
	// round: 0 uses one worker per CPU, 1 processes shards serially.
	// Results are bit-identical at any worker count.
	Workers int
	// Until stops the run before delivering any token strictly later
	// than this time; zero means no bound (scheduler semantics).
	Until sim.Time
	// MaxInstants stops the run after this many completed instants.
	MaxInstants int
	// EventLimit bounds delivered tokens across all shards; 0 uses
	// sim.DefaultEventLimit.
	EventLimit uint64
	// Setup, when non-nil, is applied hierarchically before the run and
	// estimation tokens are delivered to every leaf at the completion of
	// each global instant — exactly the single-scheduler contract.
	Setup *estim.Setup
	// Plan supplies a precomputed partition; nil partitions the circuit
	// with PartitionCircuit(c, Shards).
	Plan *Plan
}

// Stats summarizes one completed sharded run.
type Stats struct {
	// Schedulers lists the per-shard scheduler IDs in shard order.
	Schedulers []sim.SchedulerID
	// EndTime is the last simulated instant.
	EndTime sim.Time
	// Delivered is the total token count across shards; MaxQueue the
	// worst per-shard queue high-water mark.
	Delivered uint64
	MaxQueue  int
	// Instants counts completed global instants, Rounds the delta rounds
	// inside them, Barriers the global lower-bound-timestamp
	// synchronizations, SoloTurns the instants run inside a conservative
	// window without a barrier, and CrossTokens the tokens that crossed
	// a shard boundary.
	Instants    int
	Rounds      int
	Barriers    int
	SoloTurns   int
	CrossTokens int
	// CutCost echoes the partition's connector-cut cost.
	CutCost int
	Err     error

	owners map[sim.Handler]sim.SchedulerID
}

// OwnerOf returns the scheduler ID that owned a handler during the run —
// the key under which per-scheduler artifacts (e.g. a PrimaryOutput's
// history) were recorded. The zero ID is returned for unknown handlers.
func (st Stats) OwnerOf(h sim.Handler) sim.SchedulerID {
	if id, ok := st.owners[h]; ok {
		return id
	}
	if b, ok := h.(interface{ Base() *module.Skeleton }); ok {
		return st.owners[b.Base()]
	}
	return 0
}

// capture is one token intercepted while a shard delivered its parent:
// src is the posting shard, parent the global sequence stamp of the
// delivering token (or the global leaf index during seeding), idx the
// posting order under that parent. Sorting captures by (parent, idx)
// reconstructs exactly the order in which one scheduler would have
// sequenced them — the heart of the bit-identity argument.
type capture struct {
	src    int
	parent uint64
	idx    int
	tok    sim.Token
}

// shardState is one shard: its scheduler, context, leaves and the
// capture buffer its post intercept fills during delivery.
type shardState struct {
	sched      *sim.Scheduler
	ctx        *sim.Context
	caps       []capture
	delivering uint64
}

// engine coordinates the shards of one run.
type engine struct {
	plan   *Plan
	opts   Options
	shards []*shardState
	pool   sim.Pool
	gseq   uint64

	stats Stats
}

// Run executes the circuit across opts.Shards concurrent schedulers and
// returns the merged statistics. The simulated outcome — every module
// state trajectory, every recorded observation, every estimation sample
// in order — is bit-identical to module.Simulation.Start on one
// scheduler, for any shard count, worker count and window.
func Run(c *module.Circuit, opts Options) Stats {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	plan := opts.Plan
	if plan == nil {
		var err error
		plan, err = PartitionCircuit(c, opts.Shards)
		if err != nil {
			return Stats{Err: err}
		}
	}
	if opts.Setup != nil {
		module.ApplySetup(opts.Setup, c)
	}
	e := &engine{plan: plan, opts: opts, pool: sim.Pool{Workers: opts.Workers}}
	e.stats.CutCost = plan.CutCost
	perShard := make([]int, len(plan.Shards))
	for _, a := range plan.Assign {
		perShard[a]++
	}
	for i := range plan.Shards {
		s := &shardState{sched: sim.NewScheduler()}
		s.sched.ReserveTokens(4 * (perShard[i] + 1))
		s.ctx = s.sched.NewContext()
		s.ctx.Setup = opts.Setup
		src := i
		st := s
		s.sched.SetPostIntercept(func(tok sim.Token) bool {
			st.caps = append(st.caps, capture{src: src, parent: st.delivering, idx: len(st.caps), tok: tok})
			return true
		})
		e.shards = append(e.shards, s)
		e.stats.Schedulers = append(e.stats.Schedulers, s.sched.ID())
	}
	e.stats.owners = make(map[sim.Handler]sim.SchedulerID, 2*len(plan.Leaves))
	for i, m := range plan.Leaves {
		id := e.shards[plan.Assign[i]].sched.ID()
		e.stats.owners[m] = id
		e.stats.owners[skeletonOf(m)] = id
	}
	defer func() {
		for _, s := range e.shards {
			s.sched.SetPostIntercept(nil)
		}
	}()
	e.run()
	for _, s := range e.shards {
		e.stats.Delivered += s.sched.Delivered()
		if mq := s.sched.MaxQueueLen(); mq > e.stats.MaxQueue {
			e.stats.MaxQueue = mq
		}
	}
	return e.stats
}

// run seeds the shards and drives the barrier loop.
func (e *engine) run() {
	// Reset every leaf on its owning shard, walking the global leaf
	// order so seed tokens are sequenced exactly as one scheduler
	// resetting the same handler list would sequence them.
	for gi, m := range e.plan.Leaves {
		s := e.shards[e.plan.Assign[gi]]
		s.delivering = uint64(gi)
		if r, ok := m.(sim.Resettable); ok {
			r.ResetState(s.ctx)
		}
	}
	e.mergeCaptures()

	limit := e.opts.EventLimit
	if limit == 0 {
		limit = sim.DefaultEventLimit
	}
	window := e.opts.Window
	if window == 0 {
		window = DefaultWindow
	}
	instants := 0
	for {
		// Barrier: global lower-bound timestamp over every shard.
		e.stats.Barriers++
		T, active, _, ok := e.horizon()
		if !ok {
			return
		}
		if e.opts.Until != 0 && T > e.opts.Until {
			return
		}
		streak := 0
		for {
			crossed, err := e.runInstant(T, limit)
			if err != nil {
				e.stats.Err = err
				e.stats.EndTime = T
				return
			}
			e.stats.EndTime = T
			e.stats.Instants++
			instants++
			if e.opts.MaxInstants != 0 && instants >= e.opts.MaxInstants {
				return
			}
			// Conservative window: a shard that was alone below every
			// other shard's horizon may keep running instants without a
			// barrier while it stays strictly below that horizon (which
			// cannot move — nothing crossed the cut), posts nothing
			// across it, and the window grant lasts.
			streak++
			if active != 1 || crossed != 0 || streak >= window {
				break
			}
			nT, nActive, nOthers, nOk := e.horizon()
			if !nOk || nActive != 1 || nT >= nOthers {
				break
			}
			if e.opts.Until != 0 && nT > e.opts.Until {
				return
			}
			T, active = nT, nActive
			e.stats.SoloTurns++
		}
	}
}

// horizon computes the global minimum next-event time, how many shards
// sit exactly at it, and the minimum over the remaining shards (the solo
// shard's conservative bound; ^uint64(0)>>1 when none).
func (e *engine) horizon() (T sim.Time, active int, othersMin sim.Time, ok bool) {
	const inf = sim.Time(^uint64(0) >> 1)
	T, othersMin = inf, inf
	for _, s := range e.shards {
		nt, has := s.sched.NextEventTime()
		if !has {
			continue
		}
		switch {
		case nt < T:
			othersMin = T
			T, active = nt, 1
		case nt == T:
			active++
			othersMin = T
		default:
			if nt < othersMin {
				othersMin = nt
			}
		}
	}
	return T, active, othersMin, T != inf
}

// runInstant advances every shard to T and drains the instant in delta
// rounds: each round delivers, in parallel, every shard's tokens due at
// T in ascending stamp order while the post intercepts capture the
// children; the round barrier then merges the captures in (parent, idx)
// order, assigns them fresh global stamps and routes them to their
// owning shards. Zero-delay cross-shard connectors thus land in a later
// round of the same instant, exactly where one scheduler would have
// delivered them. Once no shard has tokens at T the instant is complete
// and estimation tokens go to every leaf in global order.
func (e *engine) runInstant(T sim.Time, limit uint64) (crossed int, err error) {
	for _, s := range e.shards {
		s.sched.AdvanceTo(T)
	}
	active := make([]int, 0, len(e.shards))
	for {
		active = active[:0]
		for i, s := range e.shards {
			if nt, ok := s.sched.NextEventTime(); ok && nt == T {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		e.stats.Rounds++
		e.pool.For(len(active), func(k int) error {
			s := e.shards[active[k]]
			for {
				tok, seq, ok := s.sched.PopDue(T)
				if !ok {
					return nil
				}
				s.delivering = seq
				s.sched.Deliver(s.ctx, tok)
			}
		})
		crossed += e.mergeCaptures()
		var delivered uint64
		for _, s := range e.shards {
			delivered += s.sched.Delivered()
		}
		if delivered > limit {
			return crossed, fmt.Errorf("%w (limit %d at time %d)", sim.ErrEventLimit, limit, T)
		}
	}
	if e.opts.Setup != nil {
		// End-of-instant estimation over every leaf in global order —
		// the single-scheduler instant hook verbatim, serialized so the
		// setup's sample record stays in canonical order.
		tok := &sim.EstimationToken{T: T, Setup: e.opts.Setup}
		for gi, m := range e.plan.Leaves {
			s := e.shards[e.plan.Assign[gi]]
			tok.Dst = m
			m.HandleToken(s.ctx, tok)
		}
	}
	return crossed, nil
}

// mergeCaptures globally sequences every captured post and enqueues it
// on the shard owning its target. (parent, idx) sorting restores the
// exact order a single scheduler's counter would have produced: parents
// are delivered in ascending stamp order, and a parent's posts keep
// their posting order. Returns the number of shard-crossing tokens.
func (e *engine) mergeCaptures() int {
	var all []capture
	for _, s := range e.shards {
		all = append(all, s.caps...)
		s.caps = s.caps[:0]
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].parent != all[b].parent {
			return all[a].parent < all[b].parent
		}
		return all[a].idx < all[b].idx
	})
	crossed := 0
	for _, c := range all {
		e.gseq++
		tgt, ok := e.plan.Owner(c.tok.Target())
		if !ok {
			panic(fmt.Sprintf("shard: token targets %s, which no shard owns",
				c.tok.Target().HandlerName()))
		}
		if tgt != c.src {
			crossed++
			e.stats.CrossTokens++
		}
		e.shards[tgt].sched.PostSequenced(c.tok, e.gseq)
	}
	return crossed
}
