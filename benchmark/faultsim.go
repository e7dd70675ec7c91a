package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/signal"
)

const (
	faultSizes = "RandomTwoIPDesign gates=120 designs=4 design_seeds=1999..2002 patterns=16 exhaustive, seed-ordered"
	faultGates = 120
	// faultDesignSeed fixes the four designs: their cost varies by half
	// from one design seed to another. The workload seed orders each
	// design's patterns, which changes fault dropping and so the work.
	faultDesignSeed = 1999
	faultDesigns    = 4
	faultInputs     = 4
)

// faultWorkload builds four two-IP designs per operation and runs
// virtual fault simulation over each with the default worker pool.
type faultWorkload struct {
	patterns   [faultDesigns][][]signal.Bit
	cold       [faultDesigns]faultOutcome
	coldDigest string
	splits     []faultSplit
}

type faultOutcome struct {
	design *fault.IPDesign
	vs     *fault.VirtualSimulator
	res    *fault.Result
}

// faultSplit is one traced operation's fault-simulation work.
type faultSplit struct {
	design, sim, tableBusy                     time.Duration
	tableCalls, distinct, freeRuns, injections int
}

func prepareFault(seed int64, _ string, _ bool) (workload, error) {
	w := &faultWorkload{}
	rng := rand.New(rand.NewSource(seed))
	for k := range w.patterns {
		for _, v := range rng.Perm(1 << faultInputs) {
			p := make([]signal.Bit, faultInputs)
			for i := range p {
				if v>>i&1 == 1 {
					p[i] = signal.B1
				}
			}
			w.patterns[k] = append(w.patterns[k], p)
		}
	}
	outs, _, err := w.simulate(0, nil)
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	w.cold = outs
	w.coldDigest = faultDigest(outs)
	return w, nil
}

// simulate builds the designs and fault-simulates each one; tr, when
// set, times the design build, the run and every detection-table query.
func (w *faultWorkload) simulate(op int, tr *tracer) ([faultDesigns]faultOutcome, *faultSplit, error) {
	var outs [faultDesigns]faultOutcome
	var s *faultSplit
	root := -1
	if tr != nil {
		s = &faultSplit{}
		now := time.Now()
		root = tr.add("op", op, -1, now, now)
		defer func() { tr.finish(root, time.Now()) }()
	}
	for k := range outs {
		b0 := time.Now()
		d, err := fault.RandomTwoIPDesign(faultGates, faultDesignSeed+int64(k))
		b1 := time.Now()
		if err != nil {
			return outs, nil, err
		}
		run := -1
		var svcs []*timedService
		if s != nil {
			s.design += b1.Sub(b0)
			tr.add("fault.design", op, root, b0, b1)
			run = tr.add("fault.run", op, root, b1, b1)
			for _, h := range d.Hosts {
				ts := &timedService{inner: h.Service, tr: tr, op: op, parent: run, seen: make(map[string]bool)}
				h.Service = ts
				svcs = append(svcs, ts)
			}
		}
		vs := d.NewVirtual()
		r0 := time.Now()
		res, err := vs.Run(w.patterns[k])
		r1 := time.Now()
		if err != nil {
			return outs, nil, err
		}
		outs[k] = faultOutcome{d, vs, res}
		if s != nil {
			tr.finish(run, r1)
			s.sim += r1.Sub(r0)
			s.freeRuns += vs.Stats.FaultFreeRuns
			s.injections += vs.Stats.InjectionRuns
			for _, ts := range svcs {
				s.tableCalls += ts.calls
				s.tableBusy += ts.busy
				s.distinct += len(ts.seen)
			}
		}
	}
	return outs, s, nil
}

// faultDigest hashes each design's detected set (fault and first
// detecting pattern), fault count and protocol-work counters.
func faultDigest(outs [faultDesigns]faultOutcome) string {
	h := sha256.New()
	for k, o := range outs {
		st := o.vs.Stats
		fmt.Fprintf(h, "design %d total=%d free=%d tables=%d injections=%d\n",
			k, o.res.Total, st.FaultFreeRuns, st.DetectionTableCalls, st.InjectionRuns)
		names := make([]string, 0, len(o.res.Detected))
		for n := range o.res.Detected {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d\n", n, o.res.Detected[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *faultWorkload) fingerprint() string { return w.coldDigest }

// checkCold cross-checks the cold operation against full-disclosure
// serial fault simulation of each flattened design, the rule
// gocad-fault -check applies.
func (w *faultWorkload) checkCold(seed int64) error {
	for k, o := range w.cold {
		list, err := o.vs.BuildFaultList()
		if err != nil {
			return err
		}
		flat := make([]gate.Fault, 0, len(list))
		for _, q := range list {
			f, err := o.design.FlatFaultFor(q)
			if err != nil {
				return err
			}
			flat = append(flat, f)
		}
		ref, err := fault.SerialSimulateFaultsWorkers(o.design.Flat, flat, w.patterns[k], 0)
		if err != nil {
			return err
		}
		for _, q := range list {
			vp, vok := o.res.Detected[q]
			fp, fok := ref.Detected[q]
			if vok != fok || (vok && vp != fp) {
				return fmt.Errorf("design %d fault %s: virtual (%v, pattern %d), flat reference (%v, pattern %d)", k, q, vok, vp, fok, fp)
			}
		}
	}
	return checkGolden("fault-2ip", seed, w.coldDigest)
}

func (w *faultWorkload) close() error { return nil }

func (w *faultWorkload) op(op int, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	outs, s, err := w.simulate(op, tr)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if digest := faultDigest(outs); digest != w.coldDigest {
		return 0, fmt.Errorf("detections digest %s differs from the cold run's %s", digest, w.coldDigest)
	}
	if s != nil {
		w.splits = append(w.splits, *s)
	}
	return d, nil
}

func (w *faultWorkload) run(lim limits, tr *tracer) *measurement {
	m := serialLoop(lim, tr, w.op)
	if tr == nil || len(w.splits) == 0 {
		return m
	}
	med := func(f func(faultSplit) float64) float64 { return medianBy(w.splits, f) }
	l := m.layers
	l["fault.design_ms"] = med(func(s faultSplit) float64 { return ms(s.design) })
	l["fault.sim_ms"] = med(func(s faultSplit) float64 { return ms(s.sim) })
	l["fault.table_calls"] = med(func(s faultSplit) float64 { return float64(s.tableCalls) })
	l["fault.table_ms"] = med(func(s faultSplit) float64 { return ms(s.tableBusy) })
	l["fault.table_distinct_frac"] = med(func(s faultSplit) float64 {
		if s.tableCalls == 0 {
			return 0
		}
		return float64(s.distinct) / float64(s.tableCalls)
	})
	l["fault.fault_free_runs"] = med(func(s faultSplit) float64 { return float64(s.freeRuns) })
	l["fault.injection_runs"] = med(func(s faultSplit) float64 { return float64(s.injections) })
	m.notes = append(m.notes, fmt.Sprintf(
		"# layer tree, median per traced op: run = fault.design %.3f ms + fault.sim %.3f ms; fault.table busy %.3f ms overlaps fault.sim on the worker pool",
		l["fault.design_ms"], l["fault.sim_ms"], l["fault.table_ms"]))
	return m
}

// timedService decorates a testability service: it times every
// detection-table query and counts the distinct input configurations
// asked for.
type timedService struct {
	inner      fault.TestabilityService
	tr         *tracer
	op, parent int

	mu    sync.Mutex
	calls int
	busy  time.Duration
	seen  map[string]bool
}

func (s *timedService) FaultList() ([]string, error) { return s.inner.FaultList() }

func (s *timedService) DetectionTable(in []signal.Bit) (*fault.DetectionTable, error) {
	t0 := time.Now()
	dt, err := s.inner.DetectionTable(in)
	t1 := time.Now()
	s.tr.add("fault.table", s.op, s.parent, t0, t1)
	key := make([]byte, len(in))
	for i, b := range in {
		key[i] = byte(b)
	}
	s.mu.Lock()
	s.calls++
	s.busy += t1.Sub(t0)
	s.seen[string(key)] = true
	s.mu.Unlock()
	return dt, err
}
