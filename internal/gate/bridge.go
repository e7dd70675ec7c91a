package gate

import (
	"fmt"
	"strconv"
)

// Bridge is a wired-AND bridging fault between two nets: both nets
// assume the conjunction of their driven values — the classic model for
// a resistive short where the low level wins. This is one of the
// "general fault models" the paper notes the protocol extends to.
type Bridge struct {
	A, B NetID
}

// Bridged returns a netlist computing n's primary outputs under the
// wired-AND bridge b: bounded iteration, unrolled into three copies of
// n's levelized pass. Within a copy, each bridged net ANDs its driven
// value with its peer's driven value from the same copy once the peer
// has been reached (primary inputs come first, then gates in levelized
// order), and with the peer's resolved value from the copy before
// otherwise. The first copy reads that earlier value as X, from one
// extra primary input after n's own that the caller drives X. So a pair
// on a feedback path may resolve to X, an undriven net (never reached)
// reads X, and a net bridged to itself only reads Z as X.
func (n *Netlist) Bridged(b Bridge) (*Netlist, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	if err := n.checkFaults([]Fault{{Net: b.A}, {Net: b.B}}); err != nil {
		return nil, fmt.Errorf("gate: %s: bridge: %w", n.Name, err)
	}
	bn := NewNetlist(n.Name + "+bridge")
	name := func() string { return strconv.Itoa(len(bn.nets)) }
	pis := make([]NetID, len(n.nets))
	for _, id := range n.inputs {
		pis[id] = bn.AddInput(name())
	}
	// cur holds each net's value in the copy being built, and until a
	// net is reached there, its value in the copy before.
	cur := make([]NetID, len(n.nets))
	cur[b.A] = bn.AddInput("x")
	cur[b.B] = cur[b.A]
	var in []NetID // one gate's inputs; AddGate copies them
	for range 3 {
		driven := map[NetID]NetID{} // this copy's driven values of the pair
		resolve := func(id, d NetID) NetID {
			if id != b.A && id != b.B {
				return d
			}
			driven[id] = d
			peer, ok := driven[b.A+b.B-id]
			if !ok {
				peer = cur[b.A+b.B-id]
			}
			return bn.AddGate(And, name(), d, peer)
		}
		for _, id := range n.inputs {
			cur[id] = resolve(id, pis[id])
		}
		for _, gi := range n.levels {
			g := &n.gates[gi]
			in = in[:0]
			for _, id := range g.In {
				in = append(in, cur[id])
			}
			cur[g.Out] = resolve(g.Out, bn.AddGate(g.Kind, name(), in...))
		}
	}
	for _, id := range n.outputs {
		if n.nets[id].driver == -1 && !n.nets[id].isPI {
			cur[id] = bn.AddNet(name()) // undriven: reads X
		}
		bn.MarkOutput(cur[id])
	}
	return bn, bn.build()
}
