package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/signal"
)

// recordingHandler copies the fields of every SignalToken it receives —
// the contract for handlers of calendar tokens (never retain the token).
type recordingHandler struct {
	times  []Time
	ports  []int
	values []signal.Value
	srcs   []string
}

func (*recordingHandler) HandlerName() string { return "rec" }
func (h *recordingHandler) HandleToken(ctx *Context, tok Token) {
	st := tok.(*SignalToken)
	h.times = append(h.times, ctx.Now())
	h.ports = append(h.ports, st.Port)
	h.values = append(h.values, st.Value)
	h.srcs = append(h.srcs, st.Src)
}

// TestSignalPostDelivery: a by-value post delivers exactly the time,
// port, value and source it was posted with, from the calendar lanes
// (in-window times) and from spilled heap tokens (beyond the window)
// alike, in (time, post order).
func TestSignalPostDelivery(t *testing.T) {
	h := &recordingHandler{}
	s := NewScheduler()
	ctx := s.NewContext()
	const n = 100
	for i := 0; i < n; i++ {
		var b signal.Bit
		if i%2 == 1 {
			b = signal.B1
		}
		// Times 1..100: the first 63 fall in the calendar window, the
		// rest spill.
		ctx.PostSignal(Time(i+1), h, NoSlot, i, signal.BitValue{B: b}, fmt.Sprint("src", i))
	}
	if signalSpilled(s) != n-int(sigWindow)+1 {
		t.Fatalf("%d signal tokens spilled, want %d", signalSpilled(s), n-int(sigWindow)+1)
	}
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(h.ports) != n {
		t.Fatalf("delivered %d tokens, want %d", len(h.ports), n)
	}
	for i := 0; i < n; i++ {
		if h.times[i] != Time(i+1) || h.ports[i] != i || h.srcs[i] != fmt.Sprint("src", i) {
			t.Fatalf("delivery %d: t=%d port=%d src=%q", i, h.times[i], h.ports[i], h.srcs[i])
		}
		want := i%2 == 1
		if got := h.values[i].(signal.BitValue).B == signal.B1; got != want {
			t.Fatalf("delivery %d carried value %v", i, h.values[i])
		}
	}
}

// TestSignalPostInPastPanics: a by-value post keeps Post's causality
// check.
func TestSignalPostInPastPanics(t *testing.T) {
	s := NewScheduler()
	ctx := s.NewContext()
	ctx.PostSignal(5, &recordingHandler{}, NoSlot, 0, signal.BitValue{}, "x")
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("post before now did not panic")
		}
	}()
	ctx.PostSignal(4, &recordingHandler{}, NoSlot, 0, signal.BitValue{}, "x")
}

// TestHandBuiltSignalTokenSurvivesDelivery: tokens built with a plain
// composite literal are not reused — callers that retain them (tests,
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

// ringNode is an Indexed handler in a ring: every signal it receives
// bumps a count in its state slot and, until ringSteps, posts one signal
// by value to the next node. A signal carries its intended receiver's
// id as its port, so one delivered to the wrong handler is counted in
// misdelivered; one counted in the wrong slot shows in the counts.
type ringNode struct {
	id           int
	next         *ringNode
	slot         SlotIndex
	misdelivered *atomic.Int64
}

const ringSteps = 40

func (n *ringNode) HandlerName() string   { return fmt.Sprint("ring", n.id) }
func (n *ringNode) SlotIndex() *SlotIndex { return &n.slot }
func (n *ringNode) HandleToken(ctx *Context, tok Token) {
	if tok.(*SignalToken).Port != n.id {
		n.misdelivered.Add(1)
	}
	slot := ctx.SlotAt(n, n.slot.Load())
	c, _ := (*slot).(int)
	*slot = c + 1
	if ctx.Now() < ringSteps {
		ctx.PostSignal(ctx.Now()+1, n.next, n.next.slot.Load(), n.next.id, signal.BitValue{}, n.HandlerName())
	}
}

// newRing returns a ring of n nodes, none yet listed by a controller.
func newRing(n int) ([]*ringNode, *atomic.Int64) {
	bad := &atomic.Int64{}
	nodes := make([]*ringNode, n)
	for i := range nodes {
		nodes[i] = &ringNode{id: i, misdelivered: bad}
	}
	for i, nd := range nodes {
		nd.next = nodes[(i+1)%n]
	}
	return nodes, bad
}

// seedRing posts one signal to every node at time 1, so each node
// receives ringSteps signals per run.
func seedRing(ctx *Context, nodes []*ringNode) {
	for _, nd := range nodes {
		ctx.PostSignal(1, nd, nd.slot.Load(), nd.id, signal.BitValue{}, "seed")
	}
}

// ringController lists the nodes in the given order.
func ringController(nodes []*ringNode, order []int) *Controller {
	hs := make([]Handler, len(order))
	for i, j := range order {
		hs[i] = nodes[j]
	}
	c := NewController(hs...)
	c.Seed = func(ctx *Context) { seedRing(ctx, nodes) }
	return c
}

// checkRing fails unless every node was delivered only its own signals
// and its slot on s counted exactly one run's worth of them.
func checkRing(t *testing.T, s *Scheduler, nodes []*ringNode, bad *atomic.Int64) {
	t.Helper()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d signals reached the wrong handler", n)
	}
	for _, nd := range nodes {
		if got := s.SlotValue(nd, nd.slot.Load()); got != ringSteps {
			t.Errorf("%s: slot counted %v signals, want %d", nd.HandlerName(), got, ringSteps)
		}
	}
}

// TestSlotIndexTwoControllerOrders: a handler listed by two controllers
// in different orders keeps the index the first controller gave it. On
// the second controller's runs that index names another handler, so the
// table check sends the lookup to the map — with fresh schedulers and
// with one scheduler alternating between the two layouts.
func TestSlotIndexTwoControllerOrders(t *testing.T) {
	nodes, bad := newRing(4)
	first := ringController(nodes, []int{0, 1, 2, 3})
	second := ringController(nodes, []int{3, 2, 1, 0})
	for i, nd := range nodes {
		if got := nd.slot.Load(); got != uint32(i) {
			t.Fatalf("%s holds index %d, want %d from the first controller", nd.HandlerName(), got, i)
		}
	}
	for _, c := range []*Controller{first, second} {
		s := NewScheduler()
		if st := c.StartOn(s, nil, nil); st.Err != nil {
			t.Fatal(st.Err)
		}
		checkRing(t, s, nodes, bad)
	}
	// The second layout puts node 0 at index 3 and node 3 at index 0.
	s := NewScheduler()
	s.layout(second.Handlers())
	if got := s.slotIndex(nodes[0], nodes[0].slot.Load()); got != 3 {
		t.Errorf("node 0 resolved to index %d under the second layout, want 3", got)
	}
	if got := s.slotIndex(nodes[1], nodes[1].slot.Load()); got != 2 {
		t.Errorf("node 1 resolved to index %d under the second layout, want 2", got)
	}
	// One scheduler alternating layouts: each StartOn rebuilds the
	// table, and each run still counts from a fresh slot.
	for run := 0; run < 4; run++ {
		c := first
		if run%2 == 1 {
			c = second
		}
		for _, nd := range nodes {
			*s.NewContext().SlotAt(nd, NoSlot) = 0 // what a handler resets on ResetState
		}
		if st := c.StartOn(s, nil, nil); st.Err != nil {
			t.Fatal(st.Err)
		}
		checkRing(t, s, nodes, bad)
		for i, h := range c.Handlers() {
			if s.interned[i] != h {
				t.Fatalf("run %d: table index %d holds %s, want %s", run, i, s.interned[i].HandlerName(), h.HandlerName())
			}
		}
	}
}

// TestSlotIndexWithoutController: a scheduler run with no controller
// interns handlers in the order it meets them, so claimed indices point
// at other handlers (or past the table) and every lookup takes the map.
func TestSlotIndexWithoutController(t *testing.T) {
	nodes, bad := newRing(4)
	ringController(nodes, []int{0, 1, 2, 3}) // claims indices 0..3
	s := NewScheduler()
	ctx := s.NewContext()
	// Meet the nodes in reverse, so node 3 takes table index 0.
	for i := len(nodes) - 1; i >= 0; i-- {
		ctx.PostSignal(1, nodes[i], nodes[i].slot.Load(), i, signal.BitValue{}, "seed")
	}
	if err := s.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.interned[0] != Handler(nodes[3]) {
		t.Fatalf("table index 0 holds %s, want ring3", s.interned[0].HandlerName())
	}
	checkRing(t, s, nodes, bad)
}

// TestSlotValueDoesNotIntern: SlotValue returns nil for a handler the
// scheduler never met, by claimed index or by NoSlot, and leaves the
// handler table as the run left it.
func TestSlotValueDoesNotIntern(t *testing.T) {
	nodes, bad := newRing(3)
	c := ringController(nodes, []int{0, 1, 2})
	s := NewScheduler()
	if st := c.StartOn(s, nil, nil); st.Err != nil {
		t.Fatal(st.Err)
	}
	checkRing(t, s, nodes, bad)
	stranger := &ringNode{id: 9}
	NewController(stranger) // claims index 0, which names nodes[0] on s
	for _, idx := range []uint32{stranger.slot.Load(), NoSlot} {
		if got := s.SlotValue(stranger, idx); got != nil {
			t.Errorf("index %d: a handler s never met has slot %v, want nil", idx, got)
		}
	}
	if _, interned := s.internIdx[stranger]; interned || len(s.interned) != len(nodes) {
		t.Errorf("table grew to %d handlers (stranger interned: %v), want the run's %d", len(s.interned), interned, len(nodes))
	}
}

// TestSlotIndexConcurrentControllers: controllers over one handler set
// are built while runs of others are under way, and each controller
// fans its runs out with Pool.For and StartOn. Every run must deliver
// to the right handler and count in the right slot (run under -race in
// CI).
func TestSlotIndexConcurrentControllers(t *testing.T) {
	nodes, bad := newRing(5)
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 2, 3, 4, 0}}
	var wg sync.WaitGroup
	for _, order := range orders {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			c := ringController(nodes, order)
			for _, st := range startPool(c, 4, nil) {
				if st.Err != nil {
					t.Error(st.Err)
					return
				}
				checkRing(t, st.Scheduler, nodes, bad)
			}
		}(order)
	}
	wg.Wait()
	// Each node holds its position in whichever order claimed it first;
	// two nodes may even share an index, which the table check absorbs.
	for _, nd := range nodes {
		if i := nd.slot.Load(); i >= uint32(len(nodes)) {
			t.Errorf("%s holds index %d, want a list position below %d", nd.HandlerName(), i, len(nodes))
		}
	}
}
