package ppp

import (
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

// scalarRef is the per-pattern reference for the batch steps: net
// values from a levelized walk with the signal package's four-valued
// operators, energy summed in net-id order over known-to-known level
// changes, and arrival times propagated through the gates of every
// changed net, one pattern at a time. It shares no code with the lane
// kernel under test.
type scalarRef struct {
	nl       *gate.Netlist
	lib      *Library
	order    []int
	prev     []signal.Bit
	havePrev bool

	patterns    int
	toggles     uint64
	totalEnergy float64
	peak        float64
}

func newScalarRef(t *testing.T, nl *gate.Netlist) *scalarRef {
	order, err := nl.Levelized()
	if err != nil {
		t.Fatal(err)
	}
	return &scalarRef{nl: nl, lib: DefaultLibrary(), order: order, prev: make([]signal.Bit, nl.NumNets())}
}

// eval returns every net's value under one pattern; undriven nets read
// X, and a gate input reads Z as X.
func (r *scalarRef) eval(p []signal.Bit) []signal.Bit {
	cur := make([]signal.Bit, r.nl.NumNets())
	for id := range cur {
		cur[id] = signal.BX
	}
	for i, id := range r.nl.Inputs() {
		cur[id] = p[i]
	}
	gates := r.nl.Gates()
	for _, gi := range r.order {
		g := gates[gi]
		v := cur[g.In[0]].Or(cur[g.In[0]]) // BUF and NOT
		for _, id := range g.In[1:] {
			switch g.Kind {
			case gate.And, gate.Nand:
				v = v.And(cur[id])
			case gate.Or, gate.Nor:
				v = v.Or(cur[id])
			default:
				v = v.Xor(cur[id])
			}
		}
		switch g.Kind {
		case gate.Not, gate.Nand, gate.Nor, gate.Xnor:
			v = v.Not()
		}
		cur[g.Out] = v
	}
	return cur
}

// step applies one pattern and returns its energy (fJ) and delay (ps).
func (r *scalarRef) step(p []signal.Bit) (energy, delay float64) {
	nl, lib := r.nl, r.lib
	cur := r.eval(p)
	if r.havePrev {
		netEnergy := make([]float64, nl.NumNets())
		for _, g := range nl.Gates() {
			netEnergy[g.Out] = lib.EnergyPerToggle[g.Kind] + lib.LoadEnergyPerFanout*float64(nl.Fanout(g.Out))
		}
		for _, id := range nl.Inputs() {
			netEnergy[id] = lib.LoadEnergyPerFanout * float64(nl.Fanout(id))
		}
		for id := range cur {
			if cur[id].Known() && r.prev[id].Known() && cur[id] != r.prev[id] {
				energy += netEnergy[id]
				r.toggles++
			}
		}
		arrival := make([]float64, nl.NumNets())
		gates := nl.Gates()
		for _, gi := range r.order {
			g := gates[gi]
			if cur[g.Out] == r.prev[g.Out] {
				continue
			}
			var in float64
			for _, id := range g.In {
				if cur[id] != r.prev[id] && arrival[id] > in {
					in = arrival[id]
				}
			}
			arrival[g.Out] = in + lib.Delay[g.Kind] + lib.LoadDelayPerFanout*float64(nl.Fanout(g.Out))
		}
		for _, id := range nl.Outputs() {
			if cur[id] != r.prev[id] && arrival[id] > delay {
				delay = arrival[id]
			}
		}
	}
	r.prev, r.havePrev = cur, true
	r.patterns++
	r.totalEnergy += energy
	if pw := energy / lib.CycleTime; pw > r.peak {
		r.peak = pw
	}
	return energy, delay
}

// batchChunks are the chunk lengths FuzzStepBatch splits a stream into:
// single patterns, short batches, and batches around one lane pass.
var batchChunks = [...]int{1, 5, 63, 64, 65, 2, 130, 17}

// FuzzStepBatch differentially tests the power and timing batch steps
// against the scalar per-pattern reference: a random netlist, a
// four-valued pattern stream, and a split of the stream into chunks of
// fuzzed lengths. Every energy, delay and report total must be
// bit-identical. Flags add a primary input read straight back as an
// output and an undriven output.
func FuzzStepBatch(f *testing.F) {
	f.Add(uint8(4), uint8(60), uint8(3), int64(1), uint16(200), uint64(0x0123), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1), int64(7), uint16(70), uint64(0xffff), uint8(3))
	f.Add(uint8(6), uint8(119), uint8(4), int64(-5), uint16(300), uint64(0x4567), uint8(1))
	f.Fuzz(func(t *testing.T, nIn, nGates, nOut uint8, seed int64, n uint16, chunks uint64, flags uint8) {
		nl := gate.RandomCombinational(2+int(nIn%7), 1+int(nGates%120), 1+int(nOut%4), seed)
		if flags&1 != 0 {
			nl.MarkOutput(nl.Inputs()[0])
		}
		if flags&2 != 0 {
			nl.MarkOutput(nl.AddNet("dangling"))
		}
		r := rand.New(rand.NewSource(seed))
		stream := make([][]signal.Bit, 1+int(n%400))
		for i := range stream {
			p := make([]signal.Bit, len(nl.Inputs()))
			if i > 0 && r.Intn(8) == 0 {
				copy(p, stream[i-1])
			} else {
				for j := range p {
					p[j] = signal.Bit(r.Intn(4))
				}
			}
			stream[i] = p
		}
		ref := newScalarRef(t, nl)
		ps, err := NewSimulator(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := newTimingSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		var energies, delays []float64
		for start, c := 0, 0; start < len(stream); c++ {
			k := batchChunks[chunks>>(3*(c%21))&7]
			batch := stream[start:min(start+k, len(stream))]
			if energies, err = ps.StepBatch(batch, energies); err != nil {
				t.Fatal(err)
			}
			if delays, err = ts.StepBatch(batch, delays); err != nil {
				t.Fatal(err)
			}
			start += len(batch)
		}
		for i, p := range stream {
			e, d := ref.step(p)
			if energies[i] != e || delays[i] != d {
				t.Fatalf("pattern %d %s: batch energy %v delay %v, scalar %v %v",
					i, signal.WordFromBits(p), energies[i], delays[i], e, d)
			}
		}
		rep := ps.Report()
		if rep.Patterns != ref.patterns || rep.TotalToggles != ref.toggles ||
			rep.TotalEnergy != ref.totalEnergy || rep.PeakPower != ref.peak {
			t.Fatalf("report %+v, scalar patterns %d toggles %d energy %v peak %v",
				rep, ref.patterns, ref.toggles, ref.totalEnergy, ref.peak)
		}
	})
}
