package sim

import (
	"testing"

	"repro/internal/signal"
)

// TestPostDeliverZeroAlloc gates the kernel's steady-state hot path at
// exactly zero allocations per event: acquire an arena signal token,
// post it into a calendar bucket, then Run — the real drain loop
// advances the clock, pops and delivers it. The
// warm-up cycle interns the handler, claims the bucket lanes, and
// seeds the arena; after that, every cycle must reuse the same storage.
// This is the invariant the //gocad:noalloc lint annotations promise
// statically — here it is measured dynamically, and it must hold under
// -race too (the race detector must not be fed fresh allocations to
// shadow).
func TestPostDeliverZeroAlloc(t *testing.T) {
	s := NewScheduler()
	s.ReserveTokens(16)
	ctx := s.NewContext()
	h := &fuzzNullHandler{}

	// A pre-boxed value: BitValue is pointer-free and fits in an
	// interface word, but boxing a composite literal per iteration
	// would allocate in the measured loop.
	var v signal.Value = signal.BitValue{B: signal.B1}

	cycle := func() {
		before := s.Delivered()
		s.Post(ctx.AcquireSignal(s.Now()+1, h, 0, v, "steady"))
		if err := s.Run(ctx, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if s.Delivered() != before+1 {
			t.Fatal("posted token was not delivered")
		}
	}

	// Warm up: intern the handler, fault in the bucket lanes, populate
	// the arena free list.
	for i := 0; i < 8; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state post+deliver allocates %.1f allocs/op, want 0", allocs)
	}
}
