package core

import (
	"fmt"
	"math/rand"

	"repro/internal/module"
	"repro/internal/signal"
	"repro/internal/sim"
)

// GenSpec sizes a randomly generated hierarchical word-level design. The
// zero value of any field selects the default in parentheses.
type GenSpec struct {
	// Inputs is the number of autonomous random stimulus generators (4).
	Inputs int
	// Layers is the number of operator layers (3); each layer becomes a
	// nested sub-circuit, so generated designs exercise hierarchy.
	Layers int
	// LayerOps is the number of operator modules per layer (4).
	LayerOps int
	// Width is the datapath word width in bits (16, capped at 32).
	Width int
	// Patterns is the number of stimulus patterns per generator (50).
	Patterns int
	// Period is the base stimulus period (10); generators are staggered
	// across Period..Period+2 so simulation instants interleave.
	Period sim.Time
}

func (s GenSpec) withDefaults() GenSpec {
	if s.Inputs <= 0 {
		s.Inputs = 4
	}
	if s.Layers <= 0 {
		s.Layers = 3
	}
	if s.LayerOps <= 0 {
		s.LayerOps = 4
	}
	if s.Width <= 0 {
		s.Width = 16
	}
	if s.Width > 32 {
		s.Width = 32
	}
	if s.Patterns <= 0 {
		s.Patterns = 50
	}
	if s.Period <= 0 {
		s.Period = 10
	}
	return s
}

// genWordOps are the width-preserving operator behaviors generated
// designs are built from; every operator masks to the datapath width so
// results are well-defined at any width.
var genWordOps = []func(x, y uint64) uint64{
	func(x, y uint64) uint64 { return x + y },
	func(x, y uint64) uint64 { return x ^ y },
	func(x, y uint64) uint64 { return x*y>>3 ^ x },
	func(x, y uint64) uint64 { return x - y },
	func(x, y uint64) uint64 { return x&y | x>>1 },
}

// GenerateCircuitRand builds a seeded random hierarchical circuit:
// staggered autonomous stimuli feed layers of word-level operators
// (behavioral functions, registers, delays and explicit fan-outs, since
// connectors are point-to-point), each layer wrapped in a nested
// sub-circuit, with every dangling net terminated by a primary output.
// All randomness is drawn from the caller's rng — the simdeterminism
// rule — so a (seed, spec) pair names one reproducible design. The
// returned outputs observe every sink, which is what run fingerprints
// hash.
func GenerateCircuitRand(rng *rand.Rand, spec GenSpec) (*module.Circuit, []*module.PrimaryOutput) {
	spec = spec.withDefaults()
	w := spec.Width
	nconn := 0
	newConn := func() *module.Connector {
		nconn++
		return module.NewWordConnector(fmt.Sprintf("n%d", nconn), w)
	}
	// avail holds connectors whose consuming end is still dangling.
	var avail []*module.Connector
	take := func() *module.Connector {
		i := rng.Intn(len(avail))
		c := avail[i]
		avail = append(avail[:i], avail[i+1:]...)
		return c
	}

	top := module.NewCircuit("gen")
	for i := 0; i < spec.Inputs; i++ {
		c := newConn()
		period := spec.Period + sim.Time(i%3)
		top.Add(module.NewRandomPrimaryInput(fmt.Sprintf("GIN%d", i),
			w, rng.Int63(), spec.Patterns, period, c))
		avail = append(avail, c)
	}

	mask := uint64(1)<<uint(w) - 1
	nmod := 0
	for layer := 0; layer < spec.Layers; layer++ {
		sub := module.NewCircuit(fmt.Sprintf("L%d", layer))
		for op := 0; op < spec.LayerOps; op++ {
			nmod++
			name := fmt.Sprintf("m%d", nmod)
			kind := rng.Intn(6)
			if len(avail) < 2 && kind < 2 {
				kind = 5 // too few nets for a binary op: fan out instead
			}
			switch kind {
			case 0, 1: // binary word operator
				fn := genWordOps[rng.Intn(len(genWordOps))]
				a, b, o := take(), take(), newConn()
				sub.Add(module.NewFuncWordModule(name, func(in []signal.Word) []signal.Word {
					x, _ := in[0].Uint64()
					y, _ := in[1].Uint64()
					return []signal.Word{signal.WordFromUint64(fn(x, y)&mask, w)}
				}, []int{w, w}, []int{w}, []*module.Connector{a, b}, []*module.Connector{o}))
				avail = append(avail, o)
			case 2: // register
				in, out := take(), newConn()
				sub.Add(module.NewRegister(name, w, in, out))
				avail = append(avail, out)
			case 3: // net delay
				in, out := take(), newConn()
				sub.Add(module.NewDelay(name, w, sim.Time(1+rng.Intn(3)), in, out))
				avail = append(avail, out)
			case 4: // unary mixer
				rot := uint(1 + rng.Intn(w-1))
				in, out := take(), newConn()
				sub.Add(module.NewFuncWordModule(name, func(in []signal.Word) []signal.Word {
					x, _ := in[0].Uint64()
					v := (x>>rot | x<<(uint(w)-rot)) & mask
					return []signal.Word{signal.WordFromUint64(v^mask, w)}
				}, []int{w}, []int{w}, []*module.Connector{in}, []*module.Connector{out}))
				avail = append(avail, out)
			default: // explicit fan-out (connectors are point-to-point)
				in := take()
				o1, o2 := newConn(), newConn()
				sub.Add(module.NewFanout(name, w, in,
					[]*module.Connector{o1, o2}, []sim.Time{0, sim.Time(rng.Intn(2))}))
				avail = append(avail, o1, o2)
			}
		}
		top.Add(sub)
	}

	outs := make([]*module.PrimaryOutput, 0, len(avail))
	for i, c := range avail {
		po := module.NewPrimaryOutput(fmt.Sprintf("PO%d", i), w, c)
		outs = append(outs, po)
		top.Add(po)
	}
	return top, outs
}
