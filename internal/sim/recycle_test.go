package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/signal"
)

// relay is a slot-keeping test handler. Every delivery bumps its per-run
// delivery count (held in the scheduler's state slot, re-initialized by
// ResetState) and posts exactly one follow-up chosen by that count: an
// in-window by-value signal to its peer (calendar lane), a by-value
// signal beyond the calendar window (spill lane), or a self token
// (spill lane). A stale slot, a leftover token, override or hook
// therefore all change the recorded trace.
type relay struct {
	name  string
	peer  *relay
	trace *[]string
	stop  Time
	slot  SlotIndex
}

type relayState struct{ n int }

func (r *relay) HandlerName() string   { return r.name }
func (r *relay) SlotIndex() *SlotIndex { return &r.slot }

func (r *relay) ResetState(ctx *Context) {
	slot := ctx.SlotAt(r, r.slot.Load())
	st, _ := (*slot).(*relayState)
	if st == nil {
		st = &relayState{}
		*slot = st
	}
	*st = relayState{}
}

func (r *relay) HandleToken(ctx *Context, tok Token) {
	slot := ctx.SlotAt(r, r.slot.Load())
	st, _ := (*slot).(*relayState)
	if st == nil {
		st = &relayState{}
		*slot = st
	}
	st.n++
	desc := "self"
	if sig, ok := tok.(*SignalToken); ok {
		desc = fmt.Sprintf("signal %s port=%d %v", sig.Src, sig.Port, sig.Value)
	}
	*r.trace = append(*r.trace, fmt.Sprintf("%s t=%d n=%d %s", r.name, ctx.Now(), st.n, desc))
	if ctx.Now() >= r.stop {
		return
	}
	v := signal.BitValue{B: signal.Bit(st.n % 2)}
	switch st.n % 3 {
	case 0:
		ctx.PostSignal(ctx.Now()+30, r.peer, r.peer.slot.Load(), st.n, v, r.name)
	case 1:
		ctx.PostSignal(ctx.Now()+sigWindow+3, r.peer, r.peer.slot.Load(), st.n, v, r.name)
	case 2:
		ctx.Post(&SelfToken{T: ctx.Now() + 1, Dst: r})
	}
}

// relayDesign builds two cross-wired relays sharing one trace, and a
// controller over them seeded with eight token chains.
func relayDesign(trace *[]string) (*Controller, *relay, *relay) {
	a := &relay{name: "a", trace: trace, stop: 600}
	b := &relay{name: "b", trace: trace, stop: 600, peer: a}
	a.peer = b
	c := NewController(a, b)
	c.Seed = func(ctx *Context) {
		for i := Time(1); i <= 4; i++ {
			ctx.PostSignal(i, a, a.slot.Load(), 0, signal.BitValue{B: signal.B1}, "seed")
			ctx.Post(&SelfToken{T: 2 * i, Dst: b})
		}
	}
	return c, a, b
}

// signalSpilled counts the signal tokens waiting in the spill heap:
// by-value posts beyond the calendar window.
func signalSpilled(s *Scheduler) int {
	n := 0
	for _, it := range s.spill {
		if _, ok := it.tok.(*SignalToken); ok {
			n++
		}
	}
	return n
}

// TestRecycledSchedulerMatchesFresh: a run cut short — by MaxInstants,
// Until, or the event limit — leaves calendar entries, spilled signal
// tokens and self tokens pending, with an override and a hook still
// installed. Recycling must make the scheduler's next run identical to
// one on a NewScheduler: same delivery trace, Delivered, MaxQueue and
// EndTime, and nothing of the cut run left over.
func TestRecycledSchedulerMatchesFresh(t *testing.T) {
	var want []string
	ctrl, _, _ := relayDesign(&want)
	fresh := ctrl.StartOn(NewScheduler(), nil, nil)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	if len(want) < 100 {
		t.Fatalf("reference run delivered only %d tokens", len(want))
	}

	cuts := []struct {
		name   string
		opts   RunOptions
		limit  uint64
		errors bool
	}{
		{"MaxInstants", RunOptions{MaxInstants: 40}, 0, false},
		{"Until", RunOptions{Until: 150}, 0, false},
		{"EventLimit", RunOptions{}, 90, true},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			var got []string
			full, a, b := relayDesign(&got)
			cutCtrl := NewController(a, b)
			cutCtrl.Seed, cutCtrl.Options, cutCtrl.EventLimit = full.Seed, cut.opts, cut.limit
			sched := NewScheduler()
			twin := &relay{name: "b#override", peer: a, trace: &got, stop: b.stop}
			st := cutCtrl.StartOn(sched, nil, func(s *Scheduler) {
				s.Override(b, twin)
				s.AddInstantHook(func(ctx *Context, now Time) { got = append(got, fmt.Sprintf("hook t=%d", now)) })
			})
			if (st.Err != nil) != cut.errors {
				t.Fatalf("cut run error = %v, want error %v", st.Err, cut.errors)
			}
			if sched.pending == 0 || sched.sigMask == 0 || signalSpilled(sched) == 0 {
				t.Fatalf("cut run left pending=%d calendar mask=%x signal spill=%d; want all nonzero",
					sched.pending, sched.sigMask, signalSpilled(sched))
			}
			cutID := sched.ID()
			spilled := sched.spill[:cap(sched.spill)]

			sched.recycle()
			if sched.ID() == cutID {
				t.Error("recycled scheduler kept its SchedulerID")
			}
			if _, ok := sched.nextEventTime(); ok || sched.pending != 0 || sched.Now() != 0 {
				t.Errorf("recycled store not empty: pending=%d now=%d", sched.pending, sched.Now())
			}
			if len(sched.overrides) != 0 || len(sched.hooks) != 0 {
				t.Error("recycled scheduler kept an override or hook")
			}
			if sched.Delivered() != 0 || sched.MaxQueueLen() != 0 || sched.seq != 0 || sched.EventLimit != 0 {
				t.Error("recycled scheduler kept its counters")
			}
			for i, it := range spilled {
				if it.tok != nil {
					t.Fatalf("spill entry %d still pins a token after recycling", i)
				}
			}
			for i := range sched.sig {
				bk := &sched.sig[i]
				if bk.head != 0 || bk.n != 0 {
					t.Fatalf("bucket %d still occupied: head=%d n=%d", i, bk.head, bk.n)
				}
				for j := range bk.vals {
					if bk.vals[j] != nil || bk.srcs[j] != "" {
						t.Fatalf("bucket %d entry %d still pins a value", i, j)
					}
				}
			}

			got = got[:0]
			st = full.StartOn(sched, nil, nil)
			if st.Err != nil {
				t.Fatal(st.Err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if i >= len(want) || got[i] != want[i] {
						t.Fatalf("trace diverges at delivery %d: got %q", i, got[i])
					}
				}
				t.Fatalf("trace has %d deliveries, fresh run %d", len(got), len(want))
			}
			if st.Delivered != fresh.Delivered || st.MaxQueue != fresh.MaxQueue || st.EndTime != fresh.EndTime {
				t.Errorf("stats (delivered %d, max queue %d, end %d), fresh (%d, %d, %d)",
					st.Delivered, st.MaxQueue, st.EndTime, fresh.Delivered, fresh.MaxQueue, fresh.EndTime)
			}
			if sched.pending != 0 {
				t.Errorf("%d tokens left after the full run", sched.pending)
			}
		})
	}
}
