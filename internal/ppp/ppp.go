// Package ppp is gocad's stand-in for PPP, the advanced gate-level power
// simulator the paper invokes on the IP provider's server (Bogliolo et
// al., "Power and Current Estimation of Cell-Based CMOS Circuits", IEEE
// TVLSI 1997). It performs cell-based power, area and delay estimation
// over internal/gate netlists: per-cell energy characterization times
// observed toggle counts, with fanout-proportional load. Running it
// requires the gate-level description of a component, which is exactly
// why — in an IP-protected flow — it can only execute on the provider's
// JavaCAD server, never on the user's client.
package ppp

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/gate"
	"repro/internal/signal"
)

// Library holds the per-cell characterization data: switching energy,
// area, and intrinsic delay per gate kind, plus the incremental load
// energy per fanout.
type Library struct {
	Name string
	// EnergyPerToggle is the internal switching energy per output toggle,
	// in femtojoules, indexed by gate.Kind.
	EnergyPerToggle map[gate.Kind]float64
	// LoadEnergyPerFanout is the additional energy per toggle per driven
	// gate input, in femtojoules.
	LoadEnergyPerFanout float64
	// Area is the cell area in equivalent-gate units, by kind.
	Area map[gate.Kind]float64
	// Delay is the intrinsic cell delay in picoseconds, by kind.
	Delay map[gate.Kind]float64
	// LoadDelayPerFanout is the additional delay per driven input, in ps.
	LoadDelayPerFanout float64
	// CycleTime converts per-pattern energy to power, in nanoseconds.
	CycleTime float64
}

// DefaultLibrary returns a plausible 0.35µm-era standard-cell
// characterization — absolute numbers are synthetic, but the relative
// weights (XOR > NAND, inverter cheapest) follow standard cell libraries.
func DefaultLibrary() *Library {
	return &Library{
		Name: "generic-350nm",
		EnergyPerToggle: map[gate.Kind]float64{
			gate.Buf: 4, gate.Not: 3,
			gate.And: 8, gate.Nand: 6,
			gate.Or: 8, gate.Nor: 6,
			gate.Xor: 14, gate.Xnor: 14,
		},
		LoadEnergyPerFanout: 2,
		Area: map[gate.Kind]float64{
			gate.Buf: 0.5, gate.Not: 0.5,
			gate.And: 1.5, gate.Nand: 1,
			gate.Or: 1.5, gate.Nor: 1,
			gate.Xor: 3, gate.Xnor: 3,
		},
		Delay: map[gate.Kind]float64{
			gate.Buf: 50, gate.Not: 40,
			gate.And: 120, gate.Nand: 90,
			gate.Or: 130, gate.Nor: 95,
			gate.Xor: 180, gate.Xnor: 185,
		},
		LoadDelayPerFanout: 15,
		CycleTime:          10,
	}
}

// Report is the outcome of a power simulation run.
type Report struct {
	Patterns     int
	AvgPower     float64   // average power per pattern, µW
	PeakPower    float64   // maximum per-pattern power, µW
	PerPattern   []float64 // power series of the patterns applied by Run, µW
	TotalToggles uint64
	TotalEnergy  float64 // fJ
}

// Simulator runs cell-based power estimation over one netlist, up to
// gate.Lanes patterns per lane pass. It is not safe for concurrent use;
// create one per goroutine.
type Simulator struct {
	lanes *gate.LaneEvaluator
	lib   *Library

	// perNetEnergy caches energy-per-toggle for each net's driving cell,
	// including fanout load.
	perNetEnergy []float64
	// prev is each net's level after the last applied pattern: the lane
	// before lane 0 of the next batch.
	prev        []signal.Bit
	havePrev    bool
	patterns    int
	totalEnergy float64
	peak        float64
	toggles     uint64
	// series holds the power of every pattern applied by Run; Step and
	// StepBatch do not grow it, so a long-lived simulator stays flat.
	series []float64
	energy [gate.Lanes]float64 // per-lane scratch of one batch
}

// NewSimulator builds a power simulator over the netlist with the given
// library (nil selects DefaultLibrary).
func NewSimulator(nl *gate.Netlist, lib *Library) (*Simulator, error) {
	lanes, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, fmt.Errorf("ppp: %w", err)
	}
	return NewSimulatorOn(lanes, lib)
}

// NewSimulatorOn builds a power simulator that evaluates on lanes, which
// it may share with other users whose calls are serialized with its own.
func NewSimulatorOn(lanes *gate.LaneEvaluator, lib *Library) (*Simulator, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	nl := lanes.Netlist()
	var kindEnergy [gate.Xnor + 1]float64
	for k := range kindEnergy {
		kindEnergy[k] = -1
		if e, ok := lib.EnergyPerToggle[gate.Kind(k)]; ok {
			kindEnergy[k] = e
		}
	}
	s := &Simulator{lanes: lanes, lib: lib}
	s.perNetEnergy = make([]float64, nl.NumNets())
	for _, g := range nl.Gates() {
		e := kindEnergy[g.Kind]
		if e < 0 {
			return nil, fmt.Errorf("ppp: library %s has no energy for %v", lib.Name, g.Kind)
		}
		s.perNetEnergy[g.Out] = e + lib.LoadEnergyPerFanout*float64(nl.Fanout(g.Out))
	}
	// Primary inputs dissipate load energy in the gates they feed.
	for _, id := range nl.Inputs() {
		s.perNetEnergy[id] = lib.LoadEnergyPerFanout * float64(nl.Fanout(id))
	}
	s.prev = make([]signal.Bit, nl.NumNets())
	return s, nil
}

// Step applies one input pattern and returns the energy (fJ) dissipated
// by the transition from the previous pattern. The first pattern
// establishes the initial state and dissipates zero energy. Step is a
// batch of one.
func (s *Simulator) Step(inputs []signal.Bit) (float64, error) {
	one := [1][]signal.Bit{inputs}
	var e [1]float64
	out, err := s.StepBatch(one[:], e[:0])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// StepBatch applies the patterns in order and appends each one's energy
// (fJ), as Step would return it, to energies. A malformed pattern fails
// the whole batch before any pattern is applied.
func (s *Simulator) StepBatch(patterns [][]signal.Bit, energies []float64) ([]float64, error) {
	if err := s.lanes.CheckPatterns(patterns); err != nil {
		return energies, fmt.Errorf("ppp: %w", err)
	}
	for len(patterns) > 0 {
		k := min(len(patterns), gate.Lanes)
		if err := s.lanes.EvalBatch(patterns[:k]); err != nil {
			return energies, err
		}
		s.account(k)
		for _, e := range s.energy[:k] {
			s.patterns++
			s.totalEnergy += e
			if power := e / s.lib.CycleTime; power > s.peak { // fJ / ns = µW
				s.peak = power
			}
			energies = append(energies, e)
		}
		patterns = patterns[k:]
	}
	return energies, nil
}

// account sums the energy of the first k lanes of the last lane pass
// into s.energy and carries lane k-1 into prev. A net toggles in lane l
// when it holds a known level there that differs from a known level in
// lane l-1. Each lane's sum runs in net-id order, the order of the
// scalar per-pattern loop, so every energy is bit-identical to it.
//
//gocad:noalloc
func (s *Simulator) account(k int) {
	valid := ^uint64(0) >> (gate.Lanes - k)
	if !s.havePrev {
		valid &^= 1 // the first pattern only establishes state
	}
	s.havePrev = true
	s.energy = [gate.Lanes]float64{}
	planes, prev := s.lanes.Planes(), s.prev
	for id, p := range planes {
		pk, pv := shiftIn(p, prev[id])
		prev[id] = laneLevel(p, k-1)
		t := p.Known & pk & (p.Value ^ pv) & valid
		if t == 0 {
			continue
		}
		s.toggles += uint64(bits.OnesCount64(t))
		e := s.perNetEnergy[id]
		for ; t != 0; t &= t - 1 {
			s.energy[bits.TrailingZeros64(t)] += e
		}
	}
}

// shiftIn returns a net's planes one lane later: lane l holds what lane
// l-1 of p held, and lane 0 the level before the batch.
func shiftIn(p gate.Plane, before signal.Bit) (known, value uint64) {
	return p.Known<<1 | uint64(before>>1&1^1), p.Value<<1 | uint64(before&1)
}

// laneLevel decodes one lane of a plane.
func laneLevel(p gate.Plane, lane int) signal.Bit {
	lane &= gate.Lanes - 1 // lets the shifts compile without a range check
	return signal.Bit((p.Known>>lane&1^1)<<1 | p.Value>>lane&1)
}

// Run simulates a whole pattern sequence, in batches of gate.Lanes,
// records each pattern's power in the report series, and returns the
// report.
func (s *Simulator) Run(patterns [][]signal.Bit) (Report, error) {
	if len(patterns) == 0 {
		return Report{}, errors.New("ppp: empty pattern sequence")
	}
	start := len(s.series)
	series, err := s.StepBatch(patterns, s.series)
	if err != nil {
		return Report{}, err
	}
	// StepBatch appended energies; the series holds power.
	for i := start; i < len(series); i++ {
		series[i] /= s.lib.CycleTime
	}
	s.series = series
	return s.Report(), nil
}

// Report summarizes all patterns applied so far.
func (s *Simulator) Report() Report {
	r := Report{
		Patterns:     s.patterns,
		PeakPower:    s.peak,
		PerPattern:   append([]float64(nil), s.series...),
		TotalToggles: s.toggles,
		TotalEnergy:  s.totalEnergy,
	}
	if s.patterns > 1 {
		// The first pattern only establishes state.
		r.AvgPower = s.totalEnergy / s.lib.CycleTime / float64(s.patterns-1)
	}
	return r
}

// AreaOf returns the total cell area of the netlist in equivalent gates.
func AreaOf(nl *gate.Netlist, lib *Library) float64 {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var a float64
	for _, g := range nl.Gates() {
		a += lib.Area[g.Kind]
	}
	return a
}

// CriticalPath returns the worst-case propagation delay of the netlist in
// picoseconds under the library's cell delays and fanout loading.
// Arrival times are max-plus sums, so the result does not depend on
// which topological order the gates are walked in.
func CriticalPath(nl *gate.Netlist, lib *Library) (float64, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	order, err := nl.Levelized()
	if err != nil {
		return 0, err
	}
	arrival := make([]float64, nl.NumNets())
	var worst float64
	gates := nl.Gates()
	for _, gi := range order {
		g := &gates[gi]
		var in float64
		for _, id := range g.In {
			if arrival[id] > in {
				in = arrival[id]
			}
		}
		d := lib.Delay[g.Kind] + lib.LoadDelayPerFanout*float64(nl.Fanout(g.Out))
		arrival[g.Out] = in + d
		if arrival[g.Out] > worst {
			worst = arrival[g.Out]
		}
	}
	return worst, nil
}

// TimingSimulator estimates the INPUT-DEPENDENT propagation delay of a
// netlist: for each applied pattern, the arrival time of the latest
// switching primary output, under the library's cell delays and fanout
// loading. This is the accurate timing method the paper's example
// assigns to the provider's server ("accurate timing computation
// requires analyzing the multiplier's gate-level structure, which cannot
// be disclosed to the IP user"): unlike the static critical path, the
// per-pattern delay reflects which paths actually switch.
type TimingSimulator struct {
	lanes *gate.LaneEvaluator
	order []int     // the netlist's levelized gate order
	delay []float64 // per-gate cell+load delay

	// prev is each net's level after the last applied pattern.
	prev     []signal.Bit
	havePrev bool
	// changed is, per net, the lanes of the current batch whose level
	// differs from the lane before; arrival is one pattern's per-net
	// arrival times, reused across patterns (see delays).
	changed []uint64
	arrival []float64
	delays  [gate.Lanes]float64 // per-lane scratch of one batch
}

// NewTimingSimulatorOn builds a timing simulator that evaluates on
// lanes, which it may share with other users whose calls are serialized
// with its own.
func NewTimingSimulatorOn(lanes *gate.LaneEvaluator, lib *Library) (*TimingSimulator, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	nl := lanes.Netlist()
	order, err := nl.Levelized()
	if err != nil {
		return nil, err
	}
	ts := &TimingSimulator{lanes: lanes, order: order}
	ts.delay = make([]float64, nl.NumGates())
	for gi, g := range nl.Gates() {
		ts.delay[gi] = lib.Delay[g.Kind] + lib.LoadDelayPerFanout*float64(nl.Fanout(g.Out))
	}
	ts.prev = make([]signal.Bit, nl.NumNets())
	ts.changed = make([]uint64, nl.NumNets())
	ts.arrival = make([]float64, nl.NumNets())
	return ts, nil
}

// StepBatch applies the patterns in order and appends each one's delay
// in picoseconds to delays: the latest arrival among nets that changed
// value, 0 when none did and for the first pattern, which only
// establishes state. A malformed pattern fails the whole batch first.
func (t *TimingSimulator) StepBatch(patterns [][]signal.Bit, delays []float64) ([]float64, error) {
	if err := t.lanes.CheckPatterns(patterns); err != nil {
		return delays, err
	}
	for len(patterns) > 0 {
		k := min(len(patterns), gate.Lanes)
		if err := t.lanes.EvalBatch(patterns[:k]); err != nil {
			return delays, err
		}
		t.propagate(k)
		delays = append(delays, t.delays[:k]...)
		patterns = patterns[k:]
	}
	return delays, nil
}

// propagate computes the delays of the first k lanes of the last lane
// pass into t.delays and carries lane k-1 into prev. A net changes in
// lane l when its four-valued level differs from lane l-1's. Each lane
// walks the gates in levelized order: a changed gate output arrives one
// cell delay after its latest-arriving changed input (inputs that did
// not change do not gate the event). The arrival buffer needs no
// clearing between lanes: a lane reads a net's arrival only where the
// net changed in that lane, which for a gate output means the walk has
// already written it, and primary inputs are never written, so they
// stay at 0.
//
//gocad:noalloc
func (t *TimingSimulator) propagate(k int) {
	valid := ^uint64(0) >> (gate.Lanes - k)
	if !t.havePrev {
		valid &^= 1 // the first pattern only establishes state
	}
	t.havePrev = true
	planes, prev, changed := t.lanes.Planes(), t.prev, t.changed
	var any uint64
	for id, p := range planes {
		pk, pv := shiftIn(p, prev[id])
		prev[id] = laneLevel(p, k-1)
		c := ((p.Known ^ pk) | (p.Value ^ pv)) & valid
		changed[id] = c
		any |= c
	}
	nl := t.lanes.Netlist()
	gates, outputs, arrival := nl.Gates(), nl.Outputs(), t.arrival
	for l := 0; l < k; l++ {
		t.delays[l] = 0
		bit := uint64(1) << l
		if any&bit == 0 {
			continue
		}
		for _, gi := range t.order {
			g := &gates[gi]
			if changed[g.Out]&bit == 0 {
				continue
			}
			var in float64
			for _, id := range g.In {
				if changed[id]&bit != 0 && arrival[id] > in {
					in = arrival[id]
				}
			}
			arrival[g.Out] = in + t.delay[gi]
		}
		var worst float64
		for _, id := range outputs {
			if changed[id]&bit != 0 && arrival[id] > worst {
				worst = arrival[id]
			}
		}
		t.delays[l] = worst
	}
}
