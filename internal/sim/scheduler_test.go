package sim

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/signal"
)

// recorder is a test handler that records every token it receives and can
// optionally schedule follow-ups.
type recorder struct {
	name     string
	mu       sync.Mutex
	got      []Token
	times    []Time
	onToken  func(ctx *Context, tok Token)
	resetRan int
}

func (r *recorder) HandlerName() string { return r.name }

func (r *recorder) HandleToken(ctx *Context, tok Token) {
	r.mu.Lock()
	r.got = append(r.got, tok)
	r.times = append(r.times, ctx.Now())
	r.mu.Unlock()
	if r.onToken != nil {
		r.onToken(ctx, tok)
	}
}

func (r *recorder) ResetState(ctx *Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetRan++
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func TestSchedulerDeliversInTimeOrder(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r"}
	for _, tm := range []Time{30, 10, 20, 10} {
		s.Post(&SelfToken{T: tm, Dst: r})
	}
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 30}
	if len(r.times) != len(want) {
		t.Fatalf("delivered %d tokens, want %d", len(r.times), len(want))
	}
	for i, tm := range want {
		if r.times[i] != tm {
			t.Errorf("delivery %d at time %d, want %d", i, r.times[i], tm)
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r"}
	for i := 0; i < 5; i++ {
		s.Post(&SelfToken{T: 5, Dst: r, Tag: string(rune('a' + i))})
	}
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, tok := range r.got {
		if tok.(*SelfToken).Tag != string(rune('a'+i)) {
			t.Errorf("same-instant order violated at %d: %q", i, tok.(*SelfToken).Tag)
		}
	}
}

func TestSchedulerPostInPastPanics(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r", onToken: func(ctx *Context, tok Token) {
		defer func() {
			if recover() == nil {
				t.Error("posting in the past did not panic")
			}
		}()
		ctx.Post(&SelfToken{T: ctx.Now() - 1, Dst: tok.Target()})
	}}
	s.Post(&SelfToken{T: 10, Dst: r})
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerUntilBound(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r"}
	for _, tm := range []Time{1, 2, 3, 4, 5} {
		s.Post(&SelfToken{T: tm, Dst: r})
	}
	if err := s.Run(nil, RunOptions{Until: 3}); err != nil {
		t.Fatal(err)
	}
	if r.count() != 3 {
		t.Errorf("delivered %d tokens, want 3", r.count())
	}
	if s.pending != 2 {
		t.Errorf("pending = %d, want 2", s.pending)
	}
}

func TestSchedulerMaxInstants(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r"}
	for _, tm := range []Time{1, 1, 2, 3} {
		s.Post(&SelfToken{T: tm, Dst: r})
	}
	if err := s.Run(nil, RunOptions{MaxInstants: 1}); err != nil {
		t.Fatal(err)
	}
	if r.count() != 2 {
		t.Errorf("single-instant run delivered %d tokens, want 2", r.count())
	}
}

func TestSchedulerSelfTriggerChain(t *testing.T) {
	// A clock-generator-like module reschedules itself 10 times.
	s := NewScheduler()
	var clock *recorder
	clock = &recorder{name: "clk", onToken: func(ctx *Context, tok Token) {
		if ctx.Now() < 100 {
			ctx.Post(&SelfToken{T: ctx.Now() + 10, Dst: clock})
		}
	}}
	s.Post(&SelfToken{T: 10, Dst: clock})
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if clock.count() != 10 {
		t.Errorf("self-trigger chain length = %d, want 10", clock.count())
	}
}

func TestSchedulerEventLimit(t *testing.T) {
	s := NewScheduler()
	s.EventLimit = 100
	var loop *recorder
	loop = &recorder{name: "loop", onToken: func(ctx *Context, tok Token) {
		ctx.Post(&SelfToken{T: ctx.Now(), Dst: loop}) // zero-delay livelock
	}}
	s.Post(&SelfToken{T: 1, Dst: loop})
	err := s.Run(nil, RunOptions{})
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestSchedulerInstantHook(t *testing.T) {
	s := NewScheduler()
	r := &recorder{name: "r"}
	var hooked []Time
	s.AddInstantHook(func(ctx *Context, completed Time) {
		hooked = append(hooked, completed)
	})
	for _, tm := range []Time{1, 1, 3} {
		s.Post(&SelfToken{T: tm, Dst: r})
	}
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 2 || hooked[0] != 1 || hooked[1] != 3 {
		t.Errorf("instant hooks fired at %v, want [1 3]", hooked)
	}
}

func TestSchedulerHookSeesReschedule(t *testing.T) {
	// A token rescheduled within the same instant keeps the instant open:
	// the hook must fire only once the instant truly drains.
	s := NewScheduler()
	fired := 0
	s.AddInstantHook(func(ctx *Context, completed Time) { fired++ })
	extra := true
	var r *recorder
	r = &recorder{name: "r", onToken: func(ctx *Context, tok Token) {
		if extra {
			extra = false
			ctx.Post(&SelfToken{T: ctx.Now(), Dst: r})
		}
	}}
	s.Post(&SelfToken{T: 7, Dst: r})
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("hook fired %d times, want 1", fired)
	}
	if r.count() != 2 {
		t.Errorf("tokens delivered = %d, want 2", r.count())
	}
}

func TestSchedulerOverride(t *testing.T) {
	s := NewScheduler()
	orig := &recorder{name: "orig"}
	repl := &recorder{name: "repl"}
	s.Override(orig, repl)
	s.Post(&SelfToken{T: 1, Dst: orig})
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if orig.count() != 0 || repl.count() != 1 {
		t.Errorf("override routing wrong: orig=%d repl=%d", orig.count(), repl.count())
	}
	// Removing the override restores normal delivery.
	s.Override(orig, nil)
	s.Post(&SelfToken{T: 2, Dst: orig})
	if err := s.Run(nil, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if orig.count() != 1 {
		t.Errorf("after removal orig=%d, want 1", orig.count())
	}
}

func TestSignalTokenAccessors(t *testing.T) {
	r := &recorder{name: "m"}
	tok := &SignalToken{T: 42, Dst: r, Port: 2, Value: signal.BitValue{B: signal.B1}, Src: "src"}
	if tok.When() != 42 || tok.Target() != Handler(r) {
		t.Error("SignalToken accessors wrong")
	}
	if tok.String() == "" {
		t.Error("SignalToken.String empty")
	}
	et := &EstimationToken{T: 1, Dst: r}
	ct := &ControlToken{T: 2, Dst: r}
	st := &SelfToken{T: 3, Dst: r}
	if et.When() != 1 || ct.When() != 2 || st.When() != 3 {
		t.Error("token When() accessors wrong")
	}
	if et.Target() != Handler(r) || ct.Target() != Handler(r) || st.Target() != Handler(r) {
		t.Error("token Target() accessors wrong")
	}
}

func TestSchedulerUniqueIDs(t *testing.T) {
	seen := make(map[SchedulerID]bool)
	for i := 0; i < 100; i++ {
		id := NewScheduler().ID()
		if seen[id] {
			t.Fatalf("duplicate scheduler ID %d", id)
		}
		seen[id] = true
	}
}
