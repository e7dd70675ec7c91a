// Package fixture exercises the tokenpool analyzer against the real
// sim package's arena-token API.
package fixture

import (
	"repro/internal/signal"
	"repro/internal/sim"
)

type sink struct{}

func (sink) HandlerName() string                 { return "sink" }
func (sink) HandleToken(*sim.Context, sim.Token) {}

type holder struct{ tok *sim.SignalToken }

func handBuiltOK(h *holder) *sim.SignalToken {
	tok := &sim.SignalToken{}
	h.tok = tok
	return tok
}

// (*sim.Context).AcquireSignal hands out arena-owned tokens: Post
// transfers ownership to the scheduler.

func arenaPostOK(ctx *sim.Context) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	ctx.Post(tok)
}

func arenaDoublePost(ctx *sim.Context) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	ctx.Post(tok)
	ctx.Post(tok) // want "posted twice"
}

func arenaUseAfterPost(ctx *sim.Context) sim.Time {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	ctx.Post(tok)
	return tok.When() // want "used after Post"
}

func arenaEscapeReturn(ctx *sim.Context) *sim.SignalToken {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	return tok // want "returned"
}

func arenaEscapeStore(ctx *sim.Context, h *holder) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	h.tok = tok // want "stored in a field or container element"
	ctx.Post(tok)
}

func arenaEscapeSend(ctx *sim.Context, ch chan *sim.SignalToken) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	ch <- tok // want "sent on a channel"
}

func arenaReacquireOK(ctx *sim.Context) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	ctx.Post(tok)
	tok = ctx.AcquireSignal(2, sink{}, 0, signal.BitValue{B: signal.B0}, "src")
	ctx.Post(tok)
}

// Retention-by-index: since the calendar kernel copies token fields
// into struct-of-arrays lanes at Post and releases the carrier, any
// code that parks the carrier itself in a container is holding a token
// the scheduler will recycle under it.

func arenaEscapeSliceIndex(ctx *sim.Context, held []*sim.SignalToken) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	held[0] = tok // want "stored in a field or container element"
	ctx.Post(tok)
}

func arenaEscapeMapStore(ctx *sim.Context, held map[int]*sim.SignalToken) {
	tok := ctx.AcquireSignal(1, sink{}, 0, signal.BitValue{B: signal.B1}, "src")
	held[0] = tok // want "stored in a field or container element"
	ctx.Post(tok)
}
