package sim

import (
	"testing"

	"repro/internal/signal"
)

// recordingHandler copies the fields of every SignalToken it receives —
// the contract for handlers of arena tokens (never retain the token).
type recordingHandler struct {
	ports  []int
	values []signal.Value
}

func (*recordingHandler) HandlerName() string { return "rec" }
func (h *recordingHandler) HandleToken(_ *Context, tok Token) {
	st := tok.(*SignalToken)
	h.ports = append(h.ports, st.Port)
	h.values = append(h.values, st.Value)
}

// TestArenaSignalTokenDelivery: arena tokens deliver exactly the fields
// they were acquired with, and free-list recycling across many events
// never cross-contaminates deliveries.
func TestArenaSignalTokenDelivery(t *testing.T) {
	h := &recordingHandler{}
	s := NewScheduler()
	ctx := s.NewContext()
	const n = 100
	for i := 0; i < n; i++ {
		var b signal.Bit
		if i%2 == 1 {
			b = signal.B1
		}
		ctx.Post(ctx.AcquireSignal(Time(i+1), h, i, signal.BitValue{B: b}, "src"))
	}
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(h.ports) != n {
		t.Fatalf("delivered %d tokens, want %d", len(h.ports), n)
	}
	for i := 0; i < n; i++ {
		if h.ports[i] != i {
			t.Fatalf("delivery %d carried port %d", i, h.ports[i])
		}
		want := i%2 == 1
		if got := h.values[i].(signal.BitValue).B == signal.B1; got != want {
			t.Fatalf("delivery %d carried value %v", i, h.values[i])
		}
	}
}

// TestArenaRecyclesTokens: after delivery releases a token to the free
// list, the next acquire must hand the same storage back out — the
// free-list recycling that makes steady state allocation-free.
func TestArenaRecyclesTokens(t *testing.T) {
	s := NewScheduler()
	ctx := s.NewContext()
	tok := ctx.AcquireSignal(1, &recordingHandler{}, 0, signal.BitValue{}, "a")
	s.arena.release(tok)
	if got := ctx.AcquireSignal(2, &recordingHandler{}, 1, signal.BitValue{}, "b"); got != tok {
		t.Error("released token not reused by the next acquire")
	}
}

// TestArenaReleaseZeroes: a released token must carry nothing of its
// previous life except arena ownership.
func TestArenaReleaseZeroes(t *testing.T) {
	s := NewScheduler()
	ctx := s.NewContext()
	tok := ctx.AcquireSignal(9, &recordingHandler{}, 7, signal.BitValue{B: signal.B1}, "ghost")
	s.arena.release(tok)
	if tok.T != 0 || tok.Dst != nil || tok.Port != 0 || tok.Value != nil || tok.Src != "" {
		t.Errorf("released token retains state: %+v", tok)
	}
	if !tok.arenaOwned {
		t.Error("released token lost arena ownership")
	}
}

// TestArenaReserveCoversRun: a reservation sized to the run must let the
// whole run proceed without growing a new slab mid-flight.
func TestArenaReserveCoversRun(t *testing.T) {
	s := NewScheduler()
	s.ReserveTokens(8)
	ctx := s.NewContext()
	if got := len(s.arena.slab) - s.arena.next; got < 8 {
		t.Fatalf("reserve left capacity %d, want >= 8", got)
	}
	slabBefore := &s.arena.slab[0]
	// Bounded live set of 4, cycled 25 times: the slab must never grow.
	h := &recordingHandler{}
	for round := 0; round < 25; round++ {
		for i := 0; i < 4; i++ {
			ctx.Post(ctx.AcquireSignal(Time(round+1), h, i, signal.BitValue{}, "x"))
		}
		if err := s.Run(ctx, RunOptions{MaxInstants: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if &s.arena.slab[0] != slabBefore {
		t.Error("arena grew a new slab despite a covering reservation")
	}
}

// TestArenaCrossSchedulerRelease: a token acquired from scheduler A but
// delivered by scheduler B must be released into B's arena — ownership
// follows delivery, which is what keeps shard-migrated tokens race-free.
func TestArenaCrossSchedulerRelease(t *testing.T) {
	a, b := NewScheduler(), NewScheduler()
	ctxA, ctxB := a.NewContext(), b.NewContext()
	tok := ctxA.AcquireSignal(1, &recordingHandler{}, 0, signal.BitValue{}, "migrant")
	b.AdvanceTo(1)
	b.Deliver(ctxB, tok)
	if len(b.arena.free) != 1 || b.arena.free[0] != tok {
		t.Error("migrated token not released into the delivering scheduler's arena")
	}
	if len(a.arena.free) != 0 {
		t.Error("origin arena received the migrated token")
	}
}

// TestHandBuiltSignalTokenSurvivesDelivery: tokens built with a plain
// composite literal are not recycled — callers that retain them (tests,
// traces) must find the fields intact after the run.
func TestHandBuiltSignalTokenSurvivesDelivery(t *testing.T) {
	h := &recordingHandler{}
	s := NewScheduler()
	tok := &SignalToken{T: 5, Dst: h, Port: 3, Value: signal.BitValue{B: signal.B1}, Src: "keep"}
	s.Post(tok)
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if tok.T != 5 || tok.Port != 3 || tok.Src != "keep" || tok.Dst != Handler(h) {
		t.Errorf("hand-built token mutated after delivery: %+v", tok)
	}
}

// TestHandBuiltTokenNotArenaReleased: plain &SignalToken{} values must
// survive delivery untouched even on a scheduler with an active arena.
func TestHandBuiltTokenNotArenaReleased(t *testing.T) {
	h := &recordingHandler{}
	s := NewScheduler()
	s.ReserveTokens(4)
	tok := &SignalToken{T: 5, Dst: h, Port: 3, Value: signal.BitValue{B: signal.B1}, Src: "keep"}
	s.Post(tok)
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if tok.T != 5 || tok.Port != 3 || tok.Src != "keep" {
		t.Errorf("hand-built token mutated after delivery: %+v", tok)
	}
	if len(s.arena.free) != 0 {
		t.Error("hand-built token leaked into the arena free list")
	}
}

// chainHandler re-posts a fresh arena token to itself n times — the
// steady-state delivery loop of a settling netlist.
type chainHandler struct {
	left int
}

func (*chainHandler) HandlerName() string { return "chain" }
func (h *chainHandler) HandleToken(ctx *Context, tok Token) {
	if h.left == 0 {
		return
	}
	h.left--
	ctx.Post(ctx.AcquireSignal(ctx.Now()+1, h, 0, tok.(*SignalToken).Value, "chain"))
}

// TestArenaSteadyStateZeroAlloc: once the arena is warm, a full
// acquire → post → deliver → release cycle allocates nothing.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	s.ReserveTokens(16)
	ctx := s.NewContext()
	h := &chainHandler{}
	// Warm-up: grow the scratch buffer and the queue once.
	h.left = 8
	ctx.Post(ctx.AcquireSignal(1, h, 0, signal.BitValue{}, "seed"))
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.left = 8
		ctx.Post(ctx.AcquireSignal(s.Now()+1, h, 0, signal.BitValue{}, "seed"))
		if err := s.Run(ctx, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state delivery allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkArenaTokenDelivery measures the steady-state delivery cycle
// under the slab arena. Run with -benchmem: it must report 0 allocs/op.
func BenchmarkArenaTokenDelivery(b *testing.B) {
	s := NewScheduler()
	s.ReserveTokens(16)
	ctx := s.NewContext()
	h := &chainHandler{}
	h.left = 8
	ctx.Post(ctx.AcquireSignal(1, h, 0, signal.BitValue{}, "seed"))
	if err := s.Run(ctx, RunOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.left = 8
		ctx.Post(ctx.AcquireSignal(s.Now()+1, h, 0, signal.BitValue{}, "seed"))
		if err := s.Run(ctx, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
