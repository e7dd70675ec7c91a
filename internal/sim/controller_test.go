package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestControllerStartRunsSeedAndReset(t *testing.T) {
	r := &recorder{name: "r"}
	c := NewController(r)
	c.Seed = func(ctx *Context) {
		ctx.Post(&SelfToken{T: 1, Dst: r})
	}
	st := c.StartOn(NewScheduler(), nil, nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if r.resetRan != 1 {
		t.Errorf("ResetState ran %d times, want 1", r.resetRan)
	}
	if st.Delivered != 1 || r.count() != 1 {
		t.Errorf("delivered = %d, recorder = %d; want 1, 1", st.Delivered, r.count())
	}
	if st.EndTime != 1 {
		t.Errorf("end time = %d, want 1", st.EndTime)
	}
}

func TestControllerSetupTravelsWithContext(t *testing.T) {
	type mySetup struct{ tag string }
	var seen any
	r := &recorder{name: "r"}
	r.onToken = func(ctx *Context, tok Token) { seen = ctx.Setup }
	c := NewController(r)
	c.Seed = func(ctx *Context) { ctx.Post(&SelfToken{T: 1, Dst: r}) }
	c.StartOn(NewScheduler(), &mySetup{tag: "s1"}, nil)
	got, ok := seen.(*mySetup)
	if !ok || got.tag != "s1" {
		t.Errorf("setup in context = %#v", seen)
	}
}

// counterModule keeps its per-run counter in the scheduler's state slot,
// to verify scheduler isolation under concurrency.
type counterModule struct {
	name  string
	limit Time
}

type counterState struct{ n int }

func (m *counterModule) HandlerName() string { return m.name }

func (m *counterModule) HandleToken(ctx *Context, tok Token) {
	slot := ctx.SlotAt(m, NoSlot)
	st, _ := (*slot).(*counterState)
	if st == nil {
		st = &counterState{}
		*slot = st
	}
	st.n++
	if ctx.Now() < m.limit {
		ctx.Post(&SelfToken{T: ctx.Now() + 1, Dst: m})
	}
}

// countOn reads the counter a scheduler's slot holds for m (-1 if none).
func (m *counterModule) countOn(s *Scheduler) int {
	st, ok := (*s.NewContext().SlotAt(m, NoSlot)).(*counterState)
	if !ok {
		return -1
	}
	return st.n
}

// startPool runs n simulations of c concurrently, each on its own
// goroutine and new scheduler, through Pool.For and StartOn; setup, if
// non-nil, supplies run i's setup.
func startPool(c *Controller, n int, setup func(i int) any) []Stats {
	stats := make([]Stats, n)
	Pool{Workers: n}.For(n, func(i int) error {
		var s any
		if setup != nil {
			s = setup(i)
		}
		stats[i] = c.StartOn(NewScheduler(), s, nil)
		return nil
	})
	return stats
}

func TestControllerConcurrentSchedulersDoNotInterfere(t *testing.T) {
	m := &counterModule{name: "m", limit: 1000}
	c := NewController(m)
	c.Seed = func(ctx *Context) { ctx.Post(&SelfToken{T: 1, Dst: m}) }

	const runs = 8
	for i, st := range startPool(c, runs, nil) {
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		if st.Delivered != 1000 {
			t.Errorf("scheduler %d delivered %d tokens, want 1000", st.Scheduler.ID(), st.Delivered)
		}
		// Each scheduler's slot counted its own run's deliveries only.
		if n := m.countOn(st.Scheduler); n != 1000 {
			t.Errorf("run %d: slot counted %d deliveries, want 1000", i, n)
		}
	}
}

// TestSchedulerSlotBasics: a slot starts nil, keeps what is stored in it
// for the handler it belongs to, is distinct per handler, and is
// invisible to every other scheduler.
func TestSchedulerSlotBasics(t *testing.T) {
	a, b := &recorder{name: "a"}, &recorder{name: "b"}
	s1, s2 := NewScheduler(), NewScheduler()
	c1, c2 := s1.NewContext(), s2.NewContext()
	if *c1.SlotAt(a, NoSlot) != nil {
		t.Fatal("new slot not nil")
	}
	*c1.SlotAt(a, NoSlot) = "a1"
	*c1.SlotAt(b, NoSlot) = "b1"
	// Interning more handlers may move the slot storage; the stored
	// values must follow.
	for i := 0; i < 100; i++ {
		c1.SlotAt(&recorder{name: "filler"}, NoSlot)
	}
	if got := *c1.SlotAt(a, NoSlot); got != "a1" {
		t.Errorf("slot a = %v, want a1", got)
	}
	if got := *c1.SlotAt(b, NoSlot); got != "b1" {
		t.Errorf("slot b = %v, want b1", got)
	}
	if got := *c2.SlotAt(a, NoSlot); got != nil {
		t.Errorf("other scheduler sees slot a = %v", got)
	}
}

// TestSchedulerSlotsConcurrentRuns: many schedulers over one handler,
// each on its own goroutine, each writing its own slot — no locks, no
// shared entry (run under -race in CI).
func TestSchedulerSlotsConcurrentRuns(t *testing.T) {
	h := &recorder{name: "h"}
	scheds := make([]*Scheduler, 32)
	var wg sync.WaitGroup
	for i := range scheds {
		scheds[i] = NewScheduler()
		wg.Add(1)
		go func(s *Scheduler) {
			defer wg.Done()
			ctx := s.NewContext()
			for j := 0; j < 100; j++ {
				n, _ := (*ctx.SlotAt(h, NoSlot)).(int)
				*ctx.SlotAt(h, NoSlot) = n + 1
			}
		}(scheds[i])
	}
	wg.Wait()
	for i, s := range scheds {
		if n := *s.NewContext().SlotAt(h, NoSlot); n != 100 {
			t.Errorf("scheduler %d slot = %v, want 100", i, n)
		}
	}
}

func TestControllerStartConcurrentSetups(t *testing.T) {
	// Each run gets its own setup; the module checks it sees the right one.
	type setup struct{ idx int }
	var mu sync.Mutex
	seen := make(map[int]int) // setup idx -> deliveries
	r := &recorder{name: "r"}
	r.onToken = func(ctx *Context, tok Token) {
		s := ctx.Setup.(*setup)
		mu.Lock()
		seen[s.idx]++
		mu.Unlock()
	}
	c := NewController(r)
	c.Seed = func(ctx *Context) {
		ctx.Post(&SelfToken{T: 1, Dst: r})
		ctx.Post(&SelfToken{T: 2, Dst: r})
	}
	startPool(c, 4, func(i int) any { return &setup{idx: i} })
	for i := 0; i < 4; i++ {
		if seen[i] != 2 {
			t.Errorf("setup %d saw %d deliveries, want 2", i, seen[i])
		}
	}
}

func TestSchedulerDeterminismProperty(t *testing.T) {
	// Two runs over the same stimulus must produce identical delivery
	// traces — determinism is what makes fault injection comparable to
	// the golden run.
	f := func(times []uint8) bool {
		if len(times) == 0 {
			return true
		}
		trace := func() []Time {
			s := NewScheduler()
			r := &recorder{name: "r"}
			for _, tm := range times {
				s.Post(&SelfToken{T: Time(tm%16) + 1, Dst: r})
			}
			if err := s.Run(nil, RunOptions{}); err != nil {
				return nil
			}
			return r.times
		}
		a, b := trace(), trace()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Handlers returns the handler set the controller resets before each run.
func (c *Controller) Handlers() []Handler { return c.handlers }
