package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/module"
	"repro/internal/signal"
	"repro/internal/sim"
)

const genSizes = "GenSpec inputs=8 layers=5 layer_ops=8 width=16 patterns=200 shape_seed=1999"

// genSpec sizes the generated design at about ten times the paper's
// Figure 2 example.
var genSpec = core.GenSpec{Inputs: 8, Layers: 5, LayerOps: 8, Width: 16, Patterns: 200}

// genShapeSeed fixes the generated design's shape. Designs drawn from
// different seeds differ thirty-fold in event count, which would swamp
// any run-to-run comparison across seeds.
const genShapeSeed = 1999

// stimulusSource feeds core.GenerateCircuitRand, which draws one seed
// per stimulus generator before it draws the design's shape. The first
// draws come from the workload seed and the rest from a fixed stream, so
// the seed changes the stimuli and never the design.
type stimulusSource struct {
	stimuli, shape rand.Source
	left           int
}

func (s *stimulusSource) Int63() int64 {
	if s.left > 0 {
		s.left--
		return s.stimuli.Int63()
	}
	return s.shape.Int63()
}

// Seed is never called by the generator; reseeding would break the split.
func (s *stimulusSource) Seed(int64) {}

// genWorkload simulates one generated design with no remote parts; one
// module.Simulation is reused across operations.
type genWorkload struct {
	simu       *module.Simulation
	outs       []*module.PrimaryOutput
	coldDigest string
	samples    []genSample
}

type genSample struct {
	d                time.Duration
	events, maxQueue uint64
}

func prepareGen(seed int64, _ string, _ bool) (workload, error) {
	src := &stimulusSource{stimuli: rand.NewSource(seed), shape: rand.NewSource(genShapeSeed), left: genSpec.Inputs}
	c, outs := core.GenerateCircuitRand(rand.New(src), genSpec)
	w := &genWorkload{simu: module.NewSimulation(c), outs: outs}
	_, _, digest, err := w.simulate()
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	w.coldDigest = digest
	return w, nil
}

// simulate runs the design once. Only the run is timed: the digest over
// every output history (time and value, in order) is taken after it,
// and each history is released as it is read.
func (w *genWorkload) simulate() (time.Duration, sim.Stats, string, error) {
	t0 := time.Now()
	st := w.simu.Start(nil)
	d := time.Since(t0)
	if st.Err != nil {
		for _, out := range w.outs {
			out.ReleaseHistory(st.Scheduler)
		}
		return d, st, "", st.Err
	}
	h := sha256.New()
	var buf [17]byte
	for _, out := range w.outs {
		hist := out.History(st.Scheduler)
		out.ReleaseHistory(st.Scheduler)
		io.WriteString(h, out.ModuleName()+"\n")
		for _, obs := range hist {
			binary.LittleEndian.PutUint64(buf[:8], uint64(obs.Time))
			// Known words hash as integers; anything else by its text.
			if wv, ok := obs.Value.(signal.WordValue); ok {
				if v, ok := wv.W.Uint64(); ok && wv.W.Known() {
					buf[8] = 1
					binary.LittleEndian.PutUint64(buf[9:], v)
					h.Write(buf[:])
					continue
				}
			}
			buf[8] = 0
			h.Write(buf[:9])
			io.WriteString(h, obs.Value.String())
		}
	}
	return d, st, hex.EncodeToString(h.Sum(nil)), nil
}

func (w *genWorkload) fingerprint() string { return w.coldDigest }

func (w *genWorkload) checkCold(seed int64) error { return checkGolden("gen-al", seed, w.coldDigest) }

func (w *genWorkload) close() error { return nil }

func (w *genWorkload) op(op int, tr *tracer) (time.Duration, error) {
	start := time.Now()
	d, st, digest, err := w.simulate()
	if err != nil {
		return 0, err
	}
	if digest != w.coldDigest {
		return 0, fmt.Errorf("output digest %s differs from the cold run's %s", digest, w.coldDigest)
	}
	if tr != nil {
		tr.add("sim.run", op, -1, start, start.Add(d))
		w.samples = append(w.samples, genSample{d, st.Delivered, uint64(st.MaxQueue)})
	}
	return d, nil
}

func (w *genWorkload) run(lim limits, tr *tracer) *measurement {
	m := serialLoop(lim, tr, w.op)
	if tr != nil && len(w.samples) > 0 {
		var events, nsPer, queue []float64
		for _, s := range w.samples {
			events = append(events, float64(s.events))
			queue = append(queue, float64(s.maxQueue))
			if s.events > 0 {
				nsPer = append(nsPer, float64(s.d)/float64(s.events))
			}
		}
		m.layers["sim.events"] = median(events)
		m.layers["sim.ns_per_event"] = median(nsPer)
		m.layers["sim.max_queue"] = median(queue)
		m.notes = append(m.notes, fmt.Sprintf("# layer tree: run = sim.events %.0f x sim.ns_per_event %.2f ns = %.3f ms (the kernel and module evaluation together)",
			median(events), median(nsPer), median(events)*median(nsPer)/1e6))
	}
	return m
}
