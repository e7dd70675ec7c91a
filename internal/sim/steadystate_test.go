package sim

import (
	"testing"

	"repro/internal/signal"
)

// TestPostDeliverZeroAlloc gates the kernel's steady-state hot path at
// exactly zero allocations per event: post a signal token by value into
// a calendar bucket, then Run — the real drain loop advances the clock,
// pops and delivers it. The warm-up cycles intern the handler and claim
// the bucket lanes; after that, every cycle must reuse the same
// storage. This is the invariant the //gocad:noalloc lint annotations
// promise statically — here it is measured dynamically, and it must
// hold under -race too (the race detector must not be fed fresh
// allocations to shadow).
func TestPostDeliverZeroAlloc(t *testing.T) {
	s := NewScheduler()
	ctx := s.NewContext()
	h := &fuzzNullHandler{}

	// A pre-boxed value: BitValue is pointer-free and fits in an
	// interface word, but boxing a composite literal per iteration
	// would allocate in the measured loop.
	var v signal.Value = signal.BitValue{B: signal.B1}

	cycle := func() {
		before := s.Delivered()
		ctx.PostSignal(s.Now()+1, h, NoSlot, 0, v, "steady")
		if err := s.Run(ctx, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if s.Delivered() != before+1 {
			t.Fatal("posted token was not delivered")
		}
	}

	// Warm up: intern the handler and fault in the bucket lanes.
	for i := 0; i < 8; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state post+deliver allocates %.1f allocs/op, want 0", allocs)
	}
}

// chainHandler posts the next token of a chain to itself from inside
// HandleToken, n times — the steady-state delivery loop of a settling
// netlist. It holds a fixed index when a controller lists it.
type chainHandler struct {
	left int
	slot SlotIndex
}

func (*chainHandler) HandlerName() string     { return "chain" }
func (h *chainHandler) SlotIndex() *SlotIndex { return &h.slot }
func (h *chainHandler) HandleToken(ctx *Context, tok Token) {
	if h.left == 0 {
		return
	}
	h.left--
	ctx.PostSignal(ctx.Now()+1, h, h.slot.Load(), 0, tok.(*SignalToken).Value, "chain")
}

// TestSignalChainZeroAlloc: a chain of by-value posts made from inside
// deliveries allocates nothing once warm, both through the map (a
// handler no controller lists) and through a fixed index (a controller
// run, reusing its scheduler).
func TestSignalChainZeroAlloc(t *testing.T) {
	var v signal.Value = signal.BitValue{}
	t.Run("map", func(t *testing.T) {
		s := NewScheduler()
		ctx := s.NewContext()
		h := &chainHandler{}
		run := func() {
			h.left = 8
			ctx.PostSignal(s.Now()+1, h, NoSlot, 0, v, "seed")
			if err := s.Run(ctx, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("steady-state chain allocates %.1f per run, want 0", allocs)
		}
	})
	t.Run("indexed", func(t *testing.T) {
		h := &chainHandler{}
		c := NewController(&fuzzNullHandler{}, h)
		if got := h.slot.Load(); got != 1 {
			t.Fatalf("controller assigned index %d, want 1", got)
		}
		c.Seed = func(ctx *Context) {
			h.left = 8
			ctx.PostSignal(1, h, h.slot.Load(), 0, v, "seed")
		}
		s := NewScheduler()
		run := func() {
			if st := c.StartOn(s, nil, nil); st.Err != nil || st.Delivered != 9 {
				t.Fatalf("run delivered %d tokens (err %v), want 9", st.Delivered, st.Err)
			}
		}
		run()
		if _, mapped := s.internIdx[h]; !mapped || len(s.interned) != 2 {
			t.Fatalf("table %v after the run, want the controller's two handlers", s.interned)
		}
		// StartOn allocates its context; the chain itself must not.
		if allocs := testing.AllocsPerRun(100, run); allocs > 1 {
			t.Errorf("indexed chain run allocates %.1f per run, want at most the context", allocs)
		}
	})
}

// BenchmarkSignalDelivery measures the steady-state delivery cycle of
// by-value signal posts. Run with -benchmem: it must report 0 allocs/op.
func BenchmarkSignalDelivery(b *testing.B) {
	s := NewScheduler()
	ctx := s.NewContext()
	h := &chainHandler{}
	var v signal.Value = signal.BitValue{}
	h.left = 8
	ctx.PostSignal(1, h, NoSlot, 0, v, "seed")
	if err := s.Run(ctx, RunOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.left = 8
		ctx.PostSignal(s.Now()+1, h, NoSlot, 0, v, "seed")
		if err := s.Run(ctx, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
