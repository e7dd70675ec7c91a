package sim

// Stats summarizes one completed simulation run.
type Stats struct {
	Scheduler SchedulerID
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
// state slots (Context.Slot).
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

// NewController returns a controller over the given handlers.
func NewController(handlers ...Handler) *Controller {
	return &Controller{handlers: handlers}
}

// Handlers returns the handler set the controller resets before each run.
func (c *Controller) Handlers() []Handler { return c.handlers }

// AddHandlers appends more handlers (e.g. after elaborating a hierarchy).
func (c *Controller) AddHandlers(hs ...Handler) { c.handlers = append(c.handlers, hs...) }

// Start runs one simulation to completion on a new scheduler and returns
// its statistics; see StartOn.
func (c *Controller) Start(setup any, configure func(*Scheduler)) Stats {
	return c.StartOn(NewScheduler(), setup, configure)
}

// StartOn runs one simulation to completion on sched, recycling it first
// so the run is observationally one on a new scheduler (fresh
// SchedulerID, empty event store, no overrides or hooks) while reusing
// its storage. A caller running many short simulations — virtual fault
// simulation's injections — keeps one scheduler per goroutine and passes
// it to every run. setup is attached to the run's context and travels
// with every token delivery (nil for estimation-free runs); configure,
// if non-nil, may register instant hooks or overrides on the scheduler
// before the run starts.
func (c *Controller) StartOn(sched *Scheduler, setup any, configure func(*Scheduler)) Stats {
	sched.recycle()
	sched.EventLimit = c.EventLimit
	// Size the token arena from the design: at one instant every handler
	// can drive a few ports, so a small multiple of the handler count
	// covers the live-token high-water mark of typical netlists.
	sched.ReserveTokens(4 * len(c.handlers))
	if configure != nil {
		configure(sched)
	}
	ctx := sched.NewContext()
	ctx.Setup = setup
	sched.Reset(ctx, c.handlers)
	if c.Seed != nil {
		c.Seed(ctx)
	}
	err := sched.Run(ctx, c.Options)
	return Stats{
		Scheduler: sched.ID(),
		EndTime:   sched.Now(),
		Delivered: sched.Delivered(),
		MaxQueue:  sched.MaxQueueLen(),
		Err:       err,
	}
}

// StartConcurrent launches n independent simulations of the same design,
// one goroutine and one scheduler each, and waits for all of them. setups
// supplies the per-run setup (may return nil); configure may adjust each
// scheduler. The kernel guarantees the runs cannot interfere.
func (c *Controller) StartConcurrent(n int, setups func(i int) any, configure func(i int, s *Scheduler)) []Stats {
	return c.StartPool(Pool{Workers: n}, n, setups, configure)
}

// StartPool is StartConcurrent with a bounded worker pool: the n runs are
// executed on at most pool.Size() goroutines, and the returned Stats
// slice is ordered by run index regardless of how the pool interleaved
// the runs. This is the primitive every fan-out site in the system builds
// on (injection runs, scenario grids, parameter sweeps).
func (c *Controller) StartPool(pool Pool, n int, setups func(i int) any, configure func(i int, s *Scheduler)) []Stats {
	stats := make([]Stats, n)
	pool.For(n, func(i int) error {
		var setup any
		if setups != nil {
			setup = setups(i)
		}
		var cfg func(*Scheduler)
		if configure != nil {
			cfg = func(s *Scheduler) { configure(i, s) }
		}
		stats[i] = c.Start(setup, cfg)
		return nil
	})
	return stats
}
