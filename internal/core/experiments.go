package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/signal"
	"repro/internal/sim"
)

// Table1Row is one estimator of the paper's Table 1: the comparison of
// three power estimators for the multiplier MULT.
type Table1Row struct {
	Estimator string
	// AvgErrPct and RMSErrPct are measured against the gate-level
	// reference over the evaluation patterns.
	AvgErrPct float64
	RMSErrPct float64
	// CostPerPatternCents is the provider fee per invocation.
	CostPerPatternCents float64
	// CPUPerPattern is the measured estimation time per pattern.
	CPUPerPattern time.Duration
	// Remote marks estimators that must run on the provider's server.
	Remote bool
}

// Table1Config parameterizes the estimator-accuracy experiment.
type Table1Config struct {
	Width    int
	Train    int // patterns used to calibrate constant/regression models
	Evaluate int // patterns used to measure errors
	Seed     int64
}

// DefaultTable1Config mirrors the paper's setting (16-bit MULT).
func DefaultTable1Config() Table1Config {
	return Table1Config{Width: 16, Train: 200, Evaluate: 200, Seed: 7}
}

// RunTable1 regenerates Table 1: it calibrates the two precharacterized
// estimators (constant and linear regression on input toggles) against
// the gate-level power simulator on a training pattern set, then measures
// their per-pattern errors on a fresh evaluation set. The gate-level
// toggle-count estimator is the reference itself, so its error is zero by
// construction (the paper's 10% reflects silicon, which we do not model);
// the ORDERING constant > regression > gate-level is the reproduced
// claim.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Width < 2 || cfg.Train < 2 || cfg.Evaluate < 2 {
		return nil, fmt.Errorf("core: invalid table1 config %+v", cfg)
	}
	nl := gate.ArrayMultiplier(cfg.Width)
	r := rand.New(rand.NewSource(cfg.Seed))
	mask := uint64(1)<<uint(cfg.Width) - 1
	pattern := func() ([]signal.Bit, int) {
		a := r.Uint64() & mask
		b := r.Uint64() & mask
		return nl.InputWord(a | b<<uint(cfg.Width)), 0
	}

	// Reference power and input toggles per pattern.
	runSet := func(n int) (powers []float64, toggles []int, err error) {
		sim, err := ppp.NewSimulator(nl, nil)
		if err != nil {
			return nil, nil, err
		}
		lib := ppp.DefaultLibrary()
		var prev []signal.Bit
		for i := 0; i < n; i++ {
			p, _ := pattern()
			energy, err := sim.Step(p)
			if err != nil {
				return nil, nil, err
			}
			tog := 0
			if prev != nil {
				for j := range p {
					if p[j] != prev[j] {
						tog++
					}
				}
			}
			prev = append(prev[:0], p...)
			if i == 0 {
				continue // first pattern establishes state
			}
			powers = append(powers, energy/lib.CycleTime)
			toggles = append(toggles, tog)
		}
		return powers, toggles, nil
	}

	trainP, trainT, err := runSet(cfg.Train)
	if err != nil {
		return nil, err
	}
	// Constant model: mean power.
	mean := 0.0
	for _, p := range trainP {
		mean += p
	}
	mean /= float64(len(trainP))
	// Linear regression power ~ base + slope·toggles (least squares).
	var sx, sy, sxx, sxy float64
	for i := range trainP {
		x, y := float64(trainT[i]), trainP[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(trainP))
	den := n*sxx - sx*sx
	slope := 0.0
	if den != 0 {
		slope = (n*sxy - sx*sy) / den
	}
	base := (sy - slope*sx) / n

	evalP, evalT, err := runSet(cfg.Evaluate)
	if err != nil {
		return nil, err
	}

	errOf := func(model func(i int) float64) (avg, rms float64) {
		for i, ref := range evalP {
			if ref == 0 {
				continue
			}
			e := math.Abs(model(i)-ref) / ref * 100
			avg += e
			rms += e * e
		}
		avg /= float64(len(evalP))
		rms = math.Sqrt(rms / float64(len(evalP)))
		return avg, rms
	}

	constAvg, constRMS := errOf(func(int) float64 { return mean })
	lrAvg, lrRMS := errOf(func(i int) float64 { return base + slope*float64(evalT[i]) })

	// Per-pattern CPU time of each model (measured).
	timeModel := func(f func()) time.Duration {
		const reps = 50
		//lint:ignore simdeterminism Table 1's CPU column is a measurement of the host, not a simulation result; it never feeds signal values.
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start) / reps
	}
	constCPU := timeModel(func() { _ = mean })
	lrCPU := timeModel(func() { _ = base + slope*3 })
	glSim, err := ppp.NewSimulator(nl, nil)
	if err != nil {
		return nil, err
	}
	p0, _ := pattern()
	p1, _ := pattern()
	if _, err := glSim.Step(p0); err != nil {
		return nil, err
	}
	glCPU := timeModel(func() {
		if _, err := glSim.Step(p1); err != nil {
			panic(err)
		}
		p0, p1 = p1, p0
	})

	return []Table1Row{
		{Estimator: "constant", AvgErrPct: constAvg, RMSErrPct: constRMS, CostPerPatternCents: 0, CPUPerPattern: constCPU},
		{Estimator: "linear-regression", AvgErrPct: lrAvg, RMSErrPct: lrRMS, CostPerPatternCents: 0, CPUPerPattern: lrCPU},
		{Estimator: "gate-level-toggle-count", AvgErrPct: 0, RMSErrPct: 0, CostPerPatternCents: 0.1, CPUPerPattern: glCPU, Remote: true},
	}, nil
}

// Table2Cell identifies one row of the paper's Table 2 grid.
type Table2Cell struct {
	Scenario Scenario
	Profile  netsim.Profile
}

// Table2Grid returns the seven rows of Table 2: AL, then ER and MR over
// local host, LAN and WAN.
func Table2Grid() []Table2Cell {
	return []Table2Cell{
		{AllLocal, netsim.InProcess},
		{EstimatorRemote, netsim.Local},
		{MultiplierRemote, netsim.Local},
		{EstimatorRemote, netsim.LAN},
		{MultiplierRemote, netsim.LAN},
		{EstimatorRemote, netsim.WAN},
		{MultiplierRemote, netsim.WAN},
	}
}

// RunTable2 regenerates Table 2 with the given base configuration (use
// DefaultConfig for the paper's 100 patterns, buffer 5). The grid's cells
// are independent full scenario runs — each builds its own design and
// provider — so they execute on cfg.Workers workers, with results in grid
// order. The emulated network latencies dominate each cell's wall-clock,
// so concurrent cells barely perturb each other's timings.
func RunTable2(cfg Config) ([]*Result, error) {
	grid := Table2Grid()
	out := make([]*Result, len(grid))
	err := sim.Pool{Workers: cfg.Workers}.For(len(grid), func(i int) error {
		cell := grid[i]
		c := cfg
		c.Profile = cell.Profile
		res, err := Run(cell.Scenario, c)
		if err != nil {
			return fmt.Errorf("core: table2 %s/%s: %w", cell.Scenario, cell.Profile.Name, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure3Point is one sample of the buffer-size sweep.
type Figure3Point struct {
	BufferPct int
	CPUTime   time.Duration
	RealTime  time.Duration
	Calls     int64
	// Fingerprint is the run's Result.Fingerprint.
	Fingerprint string
}

// RunFigure3 regenerates Figure 3: real and CPU time versus pattern
// buffer size (as a percentage of the pattern count), on the remote
// estimator (ER) with the WAN environment and the provider's power
// computation disabled — so the measured runtime increase comes only from
// RMI overhead.
func RunFigure3(cfg Config, percents []int) ([]Figure3Point, error) {
	if len(percents) == 0 {
		percents = []int{1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	out := make([]Figure3Point, len(percents))
	err := sim.Pool{Workers: cfg.Workers}.For(len(percents), func(i int) error {
		pct := percents[i]
		c := cfg
		c.Profile = netsim.WAN
		c.SkipCompute = true
		c.BufferSize = cfg.Patterns * pct / 100
		if c.BufferSize < 1 {
			c.BufferSize = 1
		}
		res, err := Run(EstimatorRemote, c)
		if err != nil {
			return fmt.Errorf("core: figure3 at %d%%: %w", pct, err)
		}
		out[i] = Figure3Point{
			BufferPct:   pct,
			CPUTime:     res.CPUTime,
			RealTime:    res.RealTime,
			Calls:       res.Calls,
			Fingerprint: res.Fingerprint(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure4Report is the worked example of the paper's Figure 4/5: the IP1
// detection table for input (1,0) and the detection verdicts of patterns
// 1100 and 1101.
type Figure4Report struct {
	FaultList      []string
	Table          *fault.DetectionTable
	Detected1100   []string
	Detected1101   []string
	CoverageAfter2 float64
}

// RunFigure4 regenerates the Figure 4 narrative using the module-level
// design and the virtual fault simulation protocol.
func RunFigure4() (*Figure4Report, error) {
	d, err := fault.Figure4Design()
	if err != nil {
		return nil, err
	}
	lt := d.Hosts[0].Service.(*fault.LocalTestability)
	dt, err := lt.DetectionTable([]signal.Bit{signal.B1, signal.B0})
	if err != nil {
		return nil, err
	}
	vs := d.NewVirtual()
	list, err := vs.BuildFaultList()
	if err != nil {
		return nil, err
	}
	patterns := [][]signal.Bit{
		{signal.B1, signal.B1, signal.B0, signal.B0}, // ABCD = 1100
		{signal.B1, signal.B1, signal.B0, signal.B1}, // ABCD = 1101
	}
	res, err := vs.Run(patterns)
	if err != nil {
		return nil, err
	}
	rep := &Figure4Report{FaultList: list, Table: dt, CoverageAfter2: res.Coverage()}
	// PerPattern preserves detection order; ranging over the Detected map
	// instead would shuffle the report between runs.
	rep.Detected1100 = append([]string(nil), res.PerPattern[0]...)
	rep.Detected1101 = append([]string(nil), res.PerPattern[1]...)
	return rep, nil
}
