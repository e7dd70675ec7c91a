// Package watermark implements the related-work IP-protection baseline
// the paper contrasts itself against: netlist watermarking in the spirit
// of Kahng et al., "Watermarking Techniques for IP Protection" (DAC
// 1998). A keyed signature is embedded into a component's gate-level
// structure by function-preserving re-encodings, so that the provider can
// later prove (with the key) that an instantiated netlist carries its
// signature.
//
// The package exists to make the paper's critique concrete and testable:
// watermarking only protects the provider from ILLEGAL INSTANTIATION —
// the full netlist is still disclosed, so it offers no protection against
// a dishonest user reverse-engineering the architecture, which is exactly
// the gap virtual simulation closes. The tests demonstrate both the
// guarantee (function preserved, signature extractable, tamper-evident)
// and the limitation (every structural query works on a watermarked
// netlist).
package watermark

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/gate"
)

// Capacity returns the number of signature bits a netlist can carry: one
// per re-encodable slot (an AND or OR gate, or an already re-encoded
// complemented pair).
// Used only by tests: TestCapacityPositive, TestCapacityExceededRejected.
func Capacity(nl *gate.Netlist) int { return len(slots(nl)) }

// slot is one embeddable position, identified by the name of the net the
// (possibly re-encoded) gate drives. Identifying slots by driven-net name
// keeps selection stable across embedding, which changes gate counts.
type slot struct {
	net    string
	marked bool // driven by the complemented-pair encoding
}

// slots enumerates embeddable positions in name order.
func slots(nl *gate.Netlist) []slot {
	driver := make(map[gate.NetID]gate.Gate, nl.NumGates())
	for _, g := range nl.Gates() {
		driver[g.Out] = g
	}
	var out []slot
	for _, g := range nl.Gates() {
		switch g.Kind {
		case gate.And, gate.Or:
			out = append(out, slot{net: nl.NetName(g.Out)})
		case gate.Not:
			// A NOT fed by a single-fanout NAND/NOR is the marked form.
			fg, ok := driver[g.In[0]]
			if ok && (fg.Kind == gate.Nand || fg.Kind == gate.Nor) && nl.Fanout(g.In[0]) == 1 {
				out = append(out, slot{net: nl.NetName(g.Out), marked: true})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].net < out[j].net })
	return out
}

// selection derives the keyed slot order: a deterministic permutation of
// the slot universe seeded by HMAC(key, slot names).
func selection(key []byte, ss []slot) []int {
	mac := hmac.New(sha256.New, key)
	for _, s := range ss {
		mac.Write([]byte(s.net))
		mac.Write([]byte{0})
	}
	seedBytes := mac.Sum(nil)
	// A small keyed PRNG (xorshift* seeded from the MAC) drives a
	// Fisher-Yates shuffle.
	state := binary.BigEndian.Uint64(seedBytes[:8]) | 1
	next := func() uint64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return state * 0x2545F4914F6CDD1D
	}
	idx := make([]int, len(ss))
	for i := range idx {
		idx[i] = i
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

// Embed returns a copy of nl carrying the signature bits under the key.
// A bit of 1 re-encodes its slot's AND/OR gate into the equivalent
// complemented pair (NOT∘NAND or NOT∘NOR); a bit of 0 leaves the plain
// encoding. The resulting netlist computes the identical function.
func Embed(nl *gate.Netlist, key []byte, bits []bool) (*gate.Netlist, error) {
	ss := slots(nl)
	if len(bits) > len(ss) {
		return nil, fmt.Errorf("watermark: %d bits exceed capacity %d of %s", len(bits), len(ss), nl.Name)
	}
	order := selection(key, ss)
	mark := make(map[string]bool, len(bits)) // net name -> desired marked state
	for i, b := range bits {
		mark[ss[order[i]].net] = b
	}

	out := gate.NewNetlist(nl.Name)
	// Recreate nets in order so NetIDs are preserved.
	for id := 0; id < nl.NumNets(); id++ {
		name := nl.NetName(gate.NetID(id))
		if nl.IsInput(gate.NetID(id)) {
			out.AddInput(name)
		} else {
			out.AddNet(name)
		}
	}
	// driver lets a selected NOT slot find its complemented pair, so a
	// 0-bit can DEMOTE a naturally marked slot back to the plain form.
	driver := make(map[gate.NetID]gate.Gate, nl.NumGates())
	for _, g := range nl.Gates() {
		driver[g.Out] = g
	}
	for _, g := range nl.Gates() {
		name := nl.NetName(g.Out)
		want, selected := mark[name]
		switch {
		case selected && want && (g.Kind == gate.And || g.Kind == gate.Or):
			// Promote: plain gate -> complemented pair.
			inv := gate.Nand
			if g.Kind == gate.Or {
				inv = gate.Nor
			}
			mid := out.AddGate(inv, "wm."+name, g.In...)
			out.AddGateTo(gate.Not, g.Out, mid)
		case selected && !want && g.Kind == gate.Not:
			// Demote: complemented pair -> plain gate. The mid gate is
			// still copied (it becomes dead logic) to keep net numbering.
			fg, ok := driver[g.In[0]]
			if ok && (fg.Kind == gate.Nand || fg.Kind == gate.Nor) && nl.Fanout(g.In[0]) == 1 {
				plain := gate.And
				if fg.Kind == gate.Nor {
					plain = gate.Or
				}
				out.AddGateTo(plain, g.Out, fg.In...)
			} else {
				out.AddGateTo(g.Kind, g.Out, g.In...)
			}
		default:
			out.AddGateTo(g.Kind, g.Out, g.In...)
		}
	}
	for id := 0; id < nl.NumNets(); id++ {
		if nl.IsOutput(gate.NetID(id)) {
			out.MarkOutput(gate.NetID(id))
		}
	}
	if err := out.Build(); err != nil {
		return nil, err
	}
	return out, nil
}

// Extract reads n signature bits back out of a (claimed) watermarked
// netlist under the key.
func Extract(nl *gate.Netlist, key []byte, n int) ([]bool, error) {
	ss := slots(nl)
	if n > len(ss) {
		return nil, fmt.Errorf("watermark: %d bits exceed slot count %d", n, len(ss))
	}
	order := selection(key, ss)
	bits := make([]bool, n)
	for i := 0; i < n; i++ {
		bits[i] = ss[order[i]].marked
	}
	return bits, nil
}

// Verify reports whether the netlist carries the signature under the key.
func Verify(nl *gate.Netlist, key []byte, bits []bool) bool {
	got, err := Extract(nl, key, len(bits))
	if err != nil {
		return false
	}
	for i := range bits {
		if got[i] != bits[i] {
			return false
		}
	}
	return true
}

// SignatureFromString packs a string into signature bits (8 per byte,
// MSB first), for readable test signatures.
func SignatureFromString(s string) []bool {
	bits := make([]bool, 0, 8*len(s))
	for i := 0; i < len(s); i++ {
		for b := 7; b >= 0; b-- {
			bits = append(bits, s[i]&(1<<uint(b)) != 0)
		}
	}
	return bits
}
