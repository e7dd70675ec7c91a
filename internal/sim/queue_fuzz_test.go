package sim

import (
	"container/heap"
	"testing"

	"repro/internal/signal"
)

// oracleItem is one pending event in the reference queue: the plain
// (time, seq) pair the two-lane store must order identically.
type oracleItem struct {
	t      Time
	seq    uint64
	id     int
	signal bool
}

// oracleQueue is the reference: a container/heap min-heap over
// (time, seq) — the exact total order the pre-calendar kernel's single
// binary heap delivered.
type oracleQueue []oracleItem

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(oracleItem)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old) - 1
	it := old[n]
	*q = old[:n]
	return it
}

// fuzzPopOne pops the earliest event from both the scheduler and the
// oracle and fails on any divergence in time, stamp, or event identity.
func fuzzPopOne(t *testing.T, s *Scheduler, oracle *oracleQueue) {
	t.Helper()
	nt, ok := s.NextEventTime()
	if !ok {
		t.Fatalf("scheduler empty with %d oracle events pending", oracle.Len())
	}
	want := heap.Pop(oracle).(oracleItem)
	if nt != want.t {
		t.Fatalf("NextEventTime = %d, oracle head at %d", nt, want.t)
	}
	s.AdvanceTo(nt)
	tok, seq, ok := s.PopDue(nt)
	if !ok {
		t.Fatalf("PopDue(%d) returned nothing, oracle head at %d", nt, want.t)
	}
	if seq != want.seq {
		t.Fatalf("popped seq %d at t=%d, oracle expects seq %d", seq, nt, want.seq)
	}
	switch tk := tok.(type) {
	case *SignalToken:
		if !want.signal {
			t.Fatalf("popped signal token (seq %d), oracle expects generic id %d", seq, want.id)
		}
		if tk.T != want.t || tk.Port != want.id {
			t.Fatalf("signal token (t=%d id=%d), oracle expects (t=%d id=%d)", tk.T, tk.Port, want.t, want.id)
		}
	case *SelfToken:
		if want.signal {
			t.Fatalf("popped generic token (seq %d), oracle expects signal id %d", seq, want.id)
		}
		if tk.T != want.t || tk.Payload.(int) != want.id {
			t.Fatalf("self token (t=%d id=%v), oracle expects (t=%d id=%d)", tk.T, tk.Payload, want.t, want.id)
		}
	default:
		t.Fatalf("unexpected token type %T", tok)
	}
}

// FuzzQueueOrdering differentially tests the calendar+spill event store
// against a container/heap oracle: random (time, seq) post/pop scripts
// must produce byte-identical pop order. Each 3-byte chunk is one op:
// c[0] selects token kind and whether to interleave a pop, c[1] the
// time offset (spanning the calendar window and the spill region), and
// c[2] the high bits of a PostSequenced stamp (low bits take the op
// index, keeping stamps unique while letting c[2] force out-of-order
// arrivals that exercise the bucket's lazy sort). Bit 1 of c[0] draws a
// signal token from the scheduler's arena instead of building one.
//
// The script runs twice on one scheduler with a recycle between: the
// first pass stops without draining, so the recycle meets pending
// calendar entries and spilled arena tokens, and the second pass must
// match a fresh oracle exactly.
func FuzzQueueOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 5, 200, 0, 5, 100, 2, 5, 150})
	f.Add([]byte{0, 63, 9, 1, 64, 8, 0, 95, 7, 128, 0, 6})
	f.Add([]byte{0, 1, 3, 0, 1, 2, 0, 1, 1, 0, 1, 0, 129, 0, 0, 128, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewScheduler()
		s.ReserveTokens(32)
		ctx := s.NewContext()
		h := &fuzzNullHandler{}
		var v signal.Value = signal.BitValue{B: signal.B1}
		run := func() *oracleQueue {
			oracle := &oracleQueue{}
			for i := 0; i+2 < len(script); i += 3 {
				op, dt, hi := script[i], script[i+1], script[i+2]
				tt := s.Now() + Time(dt%96)
				seq := (uint64(hi) << 32) | uint64(i)
				isSignal := op&1 == 0
				switch {
				case isSignal && op&2 != 0:
					s.PostSequenced(ctx.AcquireSignal(tt, h, i, v, "fuzz"), seq)
				case isSignal:
					s.PostSequenced(&SignalToken{T: tt, Dst: h, Port: i, Value: v, Src: "fuzz"}, seq)
				default:
					s.PostSequenced(&SelfToken{T: tt, Dst: h, Payload: i}, seq)
				}
				heap.Push(oracle, oracleItem{t: tt, seq: seq, id: i, signal: isSignal})
				if s.Pending() != oracle.Len() {
					t.Fatalf("Pending() = %d after post, oracle holds %d", s.Pending(), oracle.Len())
				}
				// High bit interleaves a pop mid-script, advancing the clock
				// so buckets recycle under the posts that follow.
				if op&0x80 != 0 && oracle.Len() > 0 {
					fuzzPopOne(t, s, oracle)
				}
			}
			return oracle
		}
		run()
		s.recycle()
		if s.Pending() != 0 || s.Now() != 0 {
			t.Fatalf("recycled scheduler: pending=%d now=%d", s.Pending(), s.Now())
		}
		oracle := run()
		for oracle.Len() > 0 {
			fuzzPopOne(t, s, oracle)
		}
		if s.Pending() != 0 {
			t.Fatalf("scheduler still has %d pending after oracle drained", s.Pending())
		}
		if nt, ok := s.NextEventTime(); ok {
			t.Fatalf("NextEventTime reports %d on an empty store", nt)
		}
	})
}

type fuzzNullHandler struct{}

func (*fuzzNullHandler) HandlerName() string         { return "fuzz-null" }
func (*fuzzNullHandler) HandleToken(*Context, Token) {}
