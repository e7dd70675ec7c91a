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

// fuzzDelivery is one token as the scheduler delivered it.
type fuzzDelivery struct {
	t      Time
	id     int
	signal bool
}

// fuzzRecorder copies every delivery's identity (never the token, which
// may be the calendar's scratch carrier).
type fuzzRecorder struct{ got []fuzzDelivery }

func (*fuzzRecorder) HandlerName() string { return "fuzz-rec" }
func (r *fuzzRecorder) HandleToken(ctx *Context, tok Token) {
	switch tk := tok.(type) {
	case *SignalToken:
		r.got = append(r.got, fuzzDelivery{t: ctx.Now(), id: tk.Port, signal: true})
	case *SelfToken:
		r.got = append(r.got, fuzzDelivery{t: ctx.Now(), id: tk.Payload.(int)})
	default:
		panic("fuzz-rec: unexpected token type")
	}
}

// fuzzDrain runs the scheduler for at most instants instants (0 drains
// everything), pops the same instants off the oracle, and fails on any
// divergence in delivery time, order or event identity.
func fuzzDrain(t *testing.T, s *Scheduler, ctx *Context, r *fuzzRecorder, oracle *oracleQueue, instants int) {
	t.Helper()
	nt, ok := s.nextEventTime()
	if !ok {
		t.Fatalf("scheduler empty with %d oracle events pending", oracle.Len())
	}
	if head := (*oracle)[0].t; nt != head {
		t.Fatalf("nextEventTime = %d, oracle head at %d", nt, head)
	}
	r.got = r.got[:0]
	if err := s.Run(ctx, RunOptions{MaxInstants: instants}); err != nil {
		t.Fatal(err)
	}
	var want []oracleItem
	for done := 0; oracle.Len() > 0 && (instants == 0 || done < instants); done++ {
		at := (*oracle)[0].t
		for oracle.Len() > 0 && (*oracle)[0].t == at {
			want = append(want, heap.Pop(oracle).(oracleItem))
		}
	}
	if len(r.got) != len(want) {
		t.Fatalf("drained %d tokens over %d instants, oracle expects %d", len(r.got), instants, len(want))
	}
	for i, w := range want {
		if g := r.got[i]; g.t != w.t || g.id != w.id || g.signal != w.signal {
			t.Fatalf("delivery %d: got (t=%d id=%d signal=%v), oracle expects (t=%d id=%d signal=%v seq=%d)",
				i, g.t, g.id, g.signal, w.t, w.id, w.signal, w.seq)
		}
	}
	if s.Pending() != oracle.Len() {
		t.Fatalf("Pending() = %d after drain, oracle holds %d", s.Pending(), oracle.Len())
	}
}

// FuzzQueueOrdering differentially tests the calendar+spill event store
// against a container/heap oracle: random post/drain scripts must
// deliver in exactly the oracle's (time, seq) order, where seq is the
// posting order. Each 3-byte chunk is one op: c[0] selects token kind
// and whether to interleave a partial drain, c[1] the time offset
// (spanning the calendar window and the spill region), and c[2] how
// many instants that drain runs (1 to 3). Bit 1 of c[0] posts a signal
// by value (Context.PostSignal) instead of building a token, and bits
// 2–3 pick the index it passes: none, the recorder's own, a decoy
// handler's, or one past the table. Only the recorder's own may be
// trusted; the decoy fails the test if a token reaches it.
//
// The script runs twice on one scheduler with a recycle between: the
// first pass stops without draining, so the recycle meets pending
// calendar entries and spilled tokens, and the second pass must match a
// fresh oracle exactly.
func FuzzQueueOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 5, 200, 0, 5, 100, 2, 5, 150})
	f.Add([]byte{0, 63, 9, 1, 64, 8, 0, 95, 7, 128, 0, 6})
	f.Add([]byte{0, 1, 3, 0, 1, 2, 0, 1, 1, 0, 1, 0, 129, 0, 0, 128, 0, 0})
	f.Add([]byte{6, 5, 0, 10, 90, 0, 14, 3, 0, 0x86, 70, 1, 10, 2, 2, 2, 80, 0, 0x8e, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewScheduler()
		ctx := s.NewContext()
		h := &fuzzRecorder{}
		// The layout a controller over (decoy, h) fixes: h at index 1.
		s.layout([]Handler{&fuzzDecoy{t: t}, h})
		indices := [4]uint32{NoSlot, 1, 0, 7}
		var v signal.Value = signal.BitValue{B: signal.B1}
		run := func() *oracleQueue {
			oracle := &oracleQueue{}
			var seq uint64
			for i := 0; i+2 < len(script); i += 3 {
				op, dt, depth := script[i], script[i+1], script[i+2]
				tt := s.Now() + Time(dt%96)
				isSignal := op&1 == 0
				switch {
				case isSignal && op&2 != 0:
					ctx.PostSignal(tt, h, indices[op>>2&3], i, v, "fuzz")
				case isSignal:
					s.Post(&SignalToken{T: tt, Dst: h, Port: i, Value: v, Src: "fuzz"})
				default:
					s.Post(&SelfToken{T: tt, Dst: h, Payload: i})
				}
				seq++
				heap.Push(oracle, oracleItem{t: tt, seq: seq, id: i, signal: isSignal})
				if s.Pending() != oracle.Len() {
					t.Fatalf("Pending() = %d after post, oracle holds %d", s.Pending(), oracle.Len())
				}
				// High bit interleaves a partial drain mid-script,
				// advancing the clock so buckets recycle under the posts
				// that follow.
				if op&0x80 != 0 {
					fuzzDrain(t, s, ctx, h, oracle, 1+int(depth%3))
				}
			}
			return oracle
		}
		run()
		s.recycle()
		if s.Pending() != 0 || s.Now() != 0 {
			t.Fatalf("recycled scheduler: pending=%d now=%d", s.Pending(), s.Now())
		}
		if oracle := run(); oracle.Len() > 0 {
			fuzzDrain(t, s, ctx, h, oracle, 0)
		}
		if s.Pending() != 0 {
			t.Fatalf("scheduler still has %d pending after oracle drained", s.Pending())
		}
		if nt, ok := s.nextEventTime(); ok {
			t.Fatalf("nextEventTime reports %d on an empty store", nt)
		}
	})
}

// fuzzDecoy holds the index a wrongly trusted post would deliver to.
type fuzzDecoy struct{ t *testing.T }

func (*fuzzDecoy) HandlerName() string { return "fuzz-decoy" }
func (d *fuzzDecoy) HandleToken(*Context, Token) {
	d.t.Fatal("token delivered to the decoy: a foreign index was trusted")
}

type fuzzNullHandler struct{}

func (*fuzzNullHandler) HandlerName() string         { return "fuzz-null" }
func (*fuzzNullHandler) HandleToken(*Context, Token) {}
