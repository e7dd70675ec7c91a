package sim

import (
	"testing"

	"repro/internal/signal"
)

// TestQueueAccountingAcrossLanes pins Pending and MaxQueueLen on a
// scripted post/drain sequence that spans both storage lanes: in-window
// signal tokens land in calendar buckets, far-future signal tokens and
// generic tokens land in the spill heap. The counters must reflect the
// SUM across lanes at every step — a regression to per-lane counting
// (the natural bug after the calendar split) shows up as an off-by-lane
// value on the first mixed step.
func TestQueueAccountingAcrossLanes(t *testing.T) {
	s := NewScheduler()
	ctx := s.NewContext()
	h := &fuzzNullHandler{}
	var v signal.Value = signal.BitValue{B: signal.B1}

	assertCounts := func(step string, pending, maxQ int) {
		t.Helper()
		if got := s.Pending(); got != pending {
			t.Fatalf("%s: Pending() = %d, want %d", step, got, pending)
		}
		if got := s.MaxQueueLen(); got != maxQ {
			t.Fatalf("%s: MaxQueueLen() = %d, want %d", step, got, maxQ)
		}
	}

	assertCounts("empty", 0, 0)

	// Three in-window signal tokens (calendar lane): two share t=3, one
	// at t=5.
	s.Post(&SignalToken{T: 3, Dst: h, Port: 0, Value: v, Src: "a"})
	s.Post(&SignalToken{T: 3, Dst: h, Port: 1, Value: v, Src: "b"})
	s.Post(&SignalToken{T: 5, Dst: h, Port: 2, Value: v, Src: "c"})
	assertCounts("3 bucketed posts", 3, 3)

	// A far-future signal token (beyond the calendar window) and two
	// generic tokens: all three take the spill lane.
	s.Post(&SignalToken{T: Time(sigBuckets) + 10, Dst: h, Port: 3, Value: v, Src: "d"})
	s.Post(&SelfToken{T: 4, Dst: h, Payload: 0})
	s.Post(&SelfToken{T: 6, Dst: h, Payload: 1})
	assertCounts("3 spill posts", 6, 6)

	// Drain t=3: two bucketed events leave; the high-water mark stays.
	if err := s.Run(ctx, RunOptions{MaxInstants: 1}); err != nil {
		t.Fatal(err)
	}
	assertCounts("after draining t=3", 4, 6)

	// Drain t=4 (spill lane) — Pending must drop across lanes, not just
	// the bucketed one.
	if err := s.Run(ctx, RunOptions{MaxInstants: 1}); err != nil {
		t.Fatal(err)
	}
	assertCounts("after draining t=4", 3, 6)

	// Refill past the old high-water mark: mixed lanes again.
	s.Post(&SignalToken{T: 7, Dst: h, Port: 4, Value: v, Src: "e"})
	s.Post(&SelfToken{T: 8, Dst: h, Payload: 2})
	s.Post(&SignalToken{T: 9, Dst: h, Port: 5, Value: v, Src: "f"})
	s.Post(&SignalToken{T: 9, Dst: h, Port: 6, Value: v, Src: "g"})
	assertCounts("refilled past high water", 7, 7)

	// Run to completion: everything drains, the mark is preserved.
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertCounts("after Run", 0, 7)
}
