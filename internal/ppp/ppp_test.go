package ppp

import (
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

func patterns(nl *gate.Netlist, vals ...uint64) [][]signal.Bit {
	out := make([][]signal.Bit, len(vals))
	for i, v := range vals {
		out[i] = nl.InputWord(v)
	}
	return out
}

func TestSimulatorZeroEnergyWithoutActivity(t *testing.T) {
	nl := gate.RippleAdder(4)
	s, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(patterns(nl, 5, 5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEnergy != 0 || rep.AvgPower != 0 || rep.PeakPower != 0 {
		t.Errorf("constant input dissipated energy: %+v", rep)
	}
	if rep.Patterns != 4 {
		t.Errorf("patterns = %d", rep.Patterns)
	}
}

func TestSimulatorEnergyScalesWithActivity(t *testing.T) {
	nl := gate.ArrayMultiplier(8)
	quiet, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Quiet: single-LSB changes. Busy: full random swings.
	r := rand.New(rand.NewSource(3))
	var quietSeq, busySeq []uint64
	for i := 0; i < 50; i++ {
		quietSeq = append(quietSeq, uint64(i%2))
		busySeq = append(busySeq, uint64(r.Intn(1<<16)))
	}
	qr, err := quiet.Run(patterns(nl, quietSeq...))
	if err != nil {
		t.Fatal(err)
	}
	br, err := busy.Run(patterns(nl, busySeq...))
	if err != nil {
		t.Fatal(err)
	}
	if br.AvgPower <= qr.AvgPower {
		t.Errorf("busy avg power %.1f not above quiet %.1f", br.AvgPower, qr.AvgPower)
	}
	if br.PeakPower < br.AvgPower {
		t.Error("peak below average")
	}
	if br.TotalToggles == 0 {
		t.Error("no toggles counted")
	}
}

func TestSimulatorFirstPatternFree(t *testing.T) {
	nl := gate.RippleAdder(2)
	s, _ := NewSimulator(nl, nil)
	e, err := s.Step(nl.InputWord(0xF))
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("first pattern energy = %v, want 0", e)
	}
	e, _ = s.Step(nl.InputWord(0x0))
	if e <= 0 {
		t.Errorf("second pattern energy = %v, want > 0", e)
	}
}

func TestSimulatorEmptyRunRejected(t *testing.T) {
	nl := gate.RippleAdder(2)
	s, _ := NewSimulator(nl, nil)
	if _, err := s.Run(nil); err == nil {
		t.Error("empty run accepted")
	}
}

func TestSimulatorReset(t *testing.T) {
	nl := gate.RippleAdder(2)
	s, _ := NewSimulator(nl, nil)
	if _, err := s.Run(patterns(nl, 0, 0xF, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Report().TotalEnergy == 0 {
		t.Fatal("no energy before reset")
	}
	s.Reset()
	rep := s.Report()
	if rep.TotalEnergy != 0 || rep.Patterns != 0 || len(rep.PerPattern) != 0 {
		t.Errorf("reset incomplete: %+v", rep)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	nl := gate.ArrayMultiplier(4)
	run := func() Report {
		s, err := NewSimulator(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(patterns(nl, 1, 200, 33, 255, 0, 129))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TotalEnergy != b.TotalEnergy || a.AvgPower != b.AvgPower || a.TotalToggles != b.TotalToggles {
		t.Errorf("nondeterministic power: %+v vs %+v", a, b)
	}
}

func TestAreaOfMonotonic(t *testing.T) {
	a := AreaOf(gate.ArrayMultiplier(4), nil)
	b := AreaOf(gate.ArrayMultiplier(8), nil)
	if a <= 0 || b <= a {
		t.Errorf("area not monotonic: %v, %v", a, b)
	}
}

func TestCriticalPathGrowsWithWidth(t *testing.T) {
	d4, err := CriticalPath(gate.RippleAdder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	d16, err := CriticalPath(gate.RippleAdder(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d4 <= 0 || d16 <= d4 {
		t.Errorf("critical path not growing: %v -> %v", d4, d16)
	}
}

func TestCriticalPathSingleGate(t *testing.T) {
	nl := gate.NewNetlist("one")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	o := nl.AddGate(gate.Nand, "o", a, b)
	nl.MarkOutput(o)
	lib := DefaultLibrary()
	d, err := CriticalPath(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	if d != lib.Delay[gate.Nand] {
		t.Errorf("single NAND delay = %v, want %v", d, lib.Delay[gate.Nand])
	}
}

func TestLibraryMissingKindRejected(t *testing.T) {
	nl := gate.NewNetlist("x")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	nl.MarkOutput(nl.AddGate(gate.Xor, "o", a, b))
	lib := &Library{Name: "empty", EnergyPerToggle: map[gate.Kind]float64{}, CycleTime: 1}
	if _, err := NewSimulator(nl, lib); err == nil {
		t.Error("missing characterization accepted")
	}
}

func TestXInputsDissipateNothing(t *testing.T) {
	nl := gate.RippleAdder(4)
	s, _ := NewSimulator(nl, nil)
	xs := make([]signal.Bit, 8)
	for i := range xs {
		xs[i] = signal.BX
	}
	if _, err := s.Step(xs); err != nil {
		t.Fatal(err)
	}
	e, err := s.Step(xs)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("X-to-X transition dissipated %v", e)
	}
}

func TestTimingSimulatorBasics(t *testing.T) {
	nl := gate.RippleAdder(8)
	ts, err := newTimingSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	// First pattern establishes state: zero delay.
	d, err := ts.Step(nl.InputWord(0))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("first pattern delay = %v", d)
	}
	// A full carry ripple (0 + 0 -> FF + 01) must approach the static
	// critical path; a single low-bit change must be much faster.
	dRipple, err := ts.Step(nl.InputWord(0x01FF)) // a=0xFF, b=0x01
	if err != nil {
		t.Fatal(err)
	}
	static, err := CriticalPath(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dRipple <= 0 || dRipple > static {
		t.Errorf("ripple delay %v outside (0, %v]", dRipple, static)
	}
	if dRipple < static/2 {
		t.Errorf("full ripple delay %v suspiciously below static path %v", dRipple, static)
	}
	// Back to a nearby value: only low bits switch.
	dSmall, err := ts.Step(nl.InputWord(0x01FE))
	if err != nil {
		t.Fatal(err)
	}
	if dSmall >= dRipple {
		t.Errorf("single-bit change delay %v not below ripple %v", dSmall, dRipple)
	}
	// Repeating the same pattern: nothing switches.
	dNone, err := ts.Step(nl.InputWord(0x01FE))
	if err != nil {
		t.Fatal(err)
	}
	if dNone != 0 {
		t.Errorf("no-change delay = %v", dNone)
	}
}

func TestTimingSimulatorNeverExceedsStatic(t *testing.T) {
	nl := gate.ArrayMultiplier(6)
	ts, err := newTimingSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	static, err := CriticalPath(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		d, err := ts.Step(nl.InputWord(uint64(r.Intn(1 << 12))))
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > static {
			t.Fatalf("pattern %d delay %v outside [0, %v]", i, d, static)
		}
	}
}

// TestStepBatchAllocationFree: power and timing batches into a buffer
// with room allocate nothing, and Step keeps no per-pattern state.
func TestStepBatchAllocationFree(t *testing.T) {
	nl := gate.ArrayMultiplier(8)
	ps, err := NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newTimingSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]signal.Bit, 2*gate.Lanes+5)
	for i := range batch {
		batch[i] = nl.InputWord(uint64(i * 977))
	}
	out := make([]float64, 0, len(batch))
	if n := testing.AllocsPerRun(20, func() {
		out, _ = ps.StepBatch(batch, out[:0])
		out, _ = ts.StepBatch(batch, out[:0])
		_, _ = ps.Step(batch[0])
		_, _ = ts.Step(batch[1])
	}); n != 0 {
		t.Errorf("%v allocs per batch, want 0", n)
	}
	if rep := ps.Report(); len(rep.PerPattern) != 0 {
		t.Errorf("StepBatch grew the report series to %d", len(rep.PerPattern))
	}
}

// TestStepBatchRejectsWholeBatch: a malformed pattern fails the batch
// before any pattern is applied.
func TestStepBatchRejectsWholeBatch(t *testing.T) {
	nl := gate.RippleAdder(2)
	s, _ := NewSimulator(nl, nil)
	bad := [][]signal.Bit{nl.InputWord(0), nl.InputWord(0xF), {signal.B0}}
	if _, err := s.StepBatch(bad, nil); err == nil {
		t.Fatal("short pattern accepted")
	}
	if rep := s.Report(); rep.Patterns != 0 {
		t.Errorf("failed batch applied %d patterns", rep.Patterns)
	}
	ts, _ := newTimingSimulator(nl)
	if _, err := ts.StepBatch(bad, nil); err == nil {
		t.Fatal("short pattern accepted by timing")
	}
	if d, _ := ts.Step(nl.InputWord(0xF)); d != 0 {
		t.Errorf("first applied pattern after a failed batch has delay %v, want 0", d)
	}
}

// newTimingSimulator builds a timing simulator with the default library
// on lanes of its own.
func newTimingSimulator(nl *gate.Netlist) (*TimingSimulator, error) {
	lanes, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	return NewTimingSimulatorOn(lanes, nil)
}

// Reset clears accumulated state so the simulator can be reused.
func (s *Simulator) Reset() {
	s.havePrev = false
	s.patterns = 0
	s.totalEnergy = 0
	s.peak = 0
	s.series = s.series[:0]
	s.toggles = 0
}

// Step applies one pattern and returns the pattern's propagation delay in
// picoseconds: the latest arrival among nets that changed value (0 when
// nothing switched, and for the first pattern, which only establishes
// state). Step is a batch of one.
func (t *TimingSimulator) Step(inputs []signal.Bit) (float64, error) {
	one := [1][]signal.Bit{inputs}
	var d [1]float64
	out, err := t.StepBatch(one[:], d[:0])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
