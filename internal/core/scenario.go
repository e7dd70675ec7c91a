package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/estim"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/replica"
	"repro/internal/rmi"
	"repro/internal/sim"
)

// Scenario selects one of the paper's three performance-analysis
// configurations over the Figure 2 design.
type Scenario int

// The scenarios of Table 2.
const (
	// AllLocal (AL): every design component is local — a classical design
	// with no IP protection, used for comparison.
	AllLocal Scenario = iota
	// EstimatorRemote (ER): only the multiplier's accurate power
	// estimation method is remotely accessed.
	EstimatorRemote
	// MultiplierRemote (MR): the entire multiplier runs on the IP
	// provider's server ("not realistic, but useful for comparison").
	MultiplierRemote
)

// String returns the paper's abbreviation.
func (s Scenario) String() string {
	switch s {
	case AllLocal:
		return "AL"
	case EstimatorRemote:
		return "ER"
	case MultiplierRemote:
		return "MR"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Config parameterizes a scenario run.
type Config struct {
	// Width is the operand width (the paper: 16).
	Width int
	// Patterns is the number of random input patterns (the paper: 100).
	Patterns int
	// BufferSize is the remote-estimation pattern buffer (the paper: 5).
	BufferSize int
	// Profile is the emulated network environment.
	Profile netsim.Profile
	// Nonblocking dispatches remote estimation on worker goroutines.
	Nonblocking bool
	// SkipCompute asks the provider to skip the actual power simulation
	// (Figure 3's methodology — pure RMI overhead).
	SkipCompute bool
	// Seed makes the random stimulus reproducible.
	Seed int64
	// Period is the stimulus period in simulation time units.
	Period sim.Time
	// Resilience, when non-nil, hardens the provider session: per-call
	// deadlines, backoff retry, and session recovery (reconnect + replay).
	Resilience *Resilience
	// DialVia, when non-nil, overrides the provider transport dialer —
	// fault-injection tests interpose netsim.FaultyDialer here. nil uses
	// the in-process pipe.
	DialVia func(p *provider.Provider) func() (net.Conn, error)
	// Workers bounds the concurrency of the experiment drivers that fan
	// out over independent scenario runs (the Table 2 grid, the Figure 3
	// sweep): 0 uses one worker per CPU, 1 runs the legacy serial order.
	// Each scenario run builds its own design and provider, so runs cannot
	// interfere; results are returned in grid order regardless.
	Workers int
	// InFlight bounds the RMI transport's pipelined in-flight calls:
	// 0 uses rmi.DefaultInFlight, 1 reproduces the stop-and-wait wire
	// behavior exactly. Values are bit-identical at any depth.
	InFlight int
	// Cache, when non-nil, serves repeat estimation batches from a shared
	// content-addressed cache instead of the provider (see
	// EstimationCache). Values are bit-identical with or without it.
	Cache *EstimationCache
	// Replicas is the provider replica count for the remote scenarios:
	// 0 or 1 runs the classic single provider, N > 1 stands up N
	// equivalent providers behind health-gated failover (ConnectReplicated)
	// so a dying provider re-routes the session — its replay included —
	// to the next healthy replica. Results are bit-identical at any count
	// while at least one replica stays reachable.
	Replicas int
	// ReplicaDialers, when non-nil, maps the run's replica providers to
	// their transport dialers — the chaos harness interposes scripted
	// fault dialers here. It is called once per run with the freshly built
	// providers, so concurrent grid cells never share schedule state. nil
	// uses in-process pipes.
	ReplicaDialers func(provs []*provider.Provider) []func() (net.Conn, error)
	// Breaker tunes the per-replica circuit breakers (zero fields use
	// production defaults).
	Breaker replica.BreakerConfig
	// BreakerClock injects the breakers' time source for deterministic
	// tests; nil uses the wall clock.
	BreakerClock replica.Clock
}

// DefaultConfig returns the paper's experimental parameters.
func DefaultConfig() Config {
	return Config{
		Width:       16,
		Patterns:    100,
		BufferSize:  5,
		Profile:     netsim.InProcess,
		Nonblocking: true,
		Seed:        1999,
		Period:      10,
	}
}

// Result is one row of the performance study.
type Result struct {
	Scenario Scenario
	Host     string
	// CPUTime approximates the paper's CPU-time column: wall-clock minus
	// time blocked on the (emulated) network.
	CPUTime time.Duration
	// RealTime is the paper's real-time column: wall-clock from
	// simulation start to the completion of all deferred estimation.
	RealTime time.Duration
	// SimTime is the event-processing phase alone: nonblocking remote
	// estimation keeps network waits out of this phase (the paper's
	// latency hiding), deferring them to DrainTime.
	SimTime time.Duration
	// DrainTime is the tail wait for in-flight estimation batches.
	DrainTime time.Duration
	// Blocked is the metered network wait.
	Blocked time.Duration
	// Calls and Bytes quantify the RMI traffic.
	Calls int64
	Bytes int64
	// CacheHits/CacheMisses/CacheBytesSaved summarize estimation-cache
	// activity for the run (all zero when no cache is configured).
	CacheHits       int64
	CacheMisses     int64
	CacheBytesSaved int64
	// Failovers counts replica failovers during the measured window (zero
	// for single-provider runs).
	Failovers int64
	// ReplicaStatuses snapshots per-replica health after the run (nil for
	// single-provider runs).
	ReplicaStatuses []replica.Status
	// PowerSamples counts per-pattern power values received remotely.
	PowerSamples int
	// Power is the full remote estimation report (nil for AL), including
	// the per-pattern values and any degradation record.
	Power *PowerReport
	// FeesCents is the provider bill for the run.
	FeesCents float64
	// Products counts the multiplier outputs observed at the primary
	// output (sanity: the design actually simulated).
	Products int
}

// Run executes one scenario and returns its measurements. A fresh
// provider and session are created per run so fees and meters are
// isolated.
func Run(s Scenario, cfg Config) (*Result, error) {
	if cfg.Width <= 0 || cfg.Patterns <= 0 {
		return nil, fmt.Errorf("core: invalid config %+v", cfg)
	}
	if cfg.Period == 0 {
		cfg.Period = 10
	}

	// Figure 2 connectors.
	a := module.NewWordConnector("A", cfg.Width)
	ar := module.NewWordConnector("AR", cfg.Width)
	b := module.NewWordConnector("B", cfg.Width)
	br := module.NewWordConnector("BR", cfg.Width)
	o := module.NewWordConnector("O", 2*cfg.Width)
	ina := module.NewRandomPrimaryInput("INA", cfg.Width, cfg.Seed, cfg.Patterns, cfg.Period, a)
	rega := module.NewRegister("REGA", cfg.Width, a, ar)
	inb := module.NewRandomPrimaryInput("INB", cfg.Width, cfg.Seed+1, cfg.Patterns, cfg.Period, b)
	regb := module.NewRegister("REGB", cfg.Width, b, br)
	out := module.NewPrimaryOutput("OUT", 2*cfg.Width, o)

	var (
		mult   module.Module
		remote *RemotePowerEstimator
		conn   *Connection
		rset   *replica.Set
	)
	if s == AllLocal {
		m := module.NewMult("MULT", cfg.Width, ar, br, o)
		m.AddEstimator(&estim.Constant{
			Meta:  estim.Meta{Name: "constant", Param: estim.ParamAvgPower, ErrPct: 25},
			Value: 50,
		})
		m.AddEstimator(&estim.LinearRegression{
			Meta: estim.Meta{Name: "linear-regression", Param: estim.ParamAvgPower, ErrPct: 20, CPUTime: time.Second},
			Base: 10, Slope: 2,
		})
		mult = m
	} else {
		if cfg.Replicas > 1 {
			// Replicated deployment: N equivalent providers behind
			// health-gated failover.
			provs := make([]*provider.Provider, cfg.Replicas)
			for i := range provs {
				provs[i] = provider.New(fmt.Sprintf("provider%d", i+1))
				if err := provs[i].Register(provider.MultFastLowPower()); err != nil {
					return nil, err
				}
			}
			dials := make([]func() (net.Conn, error), len(provs))
			if cfg.ReplicaDialers != nil {
				dials = cfg.ReplicaDialers(provs)
				if len(dials) != len(provs) {
					return nil, fmt.Errorf("core: ReplicaDialers returned %d dialers for %d providers", len(dials), len(provs))
				}
			} else {
				for i, p := range provs {
					dials[i] = PipeDialer(p)
				}
			}
			var err error
			conn, rset, err = ConnectReplicated(provs, "designer", cfg.Profile, dials, cfg.Breaker, cfg.BreakerClock)
			if err != nil {
				return nil, err
			}
		} else {
			prov := provider.New("provider1")
			if err := prov.Register(provider.MultFastLowPower()); err != nil {
				return nil, err
			}
			dial := PipeDialer(prov)
			if cfg.DialVia != nil {
				dial = cfg.DialVia(prov)
			}
			var err error
			conn, err = ConnectVia(prov, "designer", cfg.Profile, dial)
			if err != nil {
				return nil, err
			}
		}
		defer conn.Close()
		conn.Client.RPC.MaxInFlight = cfg.InFlight
		if cfg.Resilience != nil {
			// Harden before Bind so the bind lands in the recovery journal.
			conn.Harden(*cfg.Resilience)
		}
		inst, err := conn.Client.Bind("MultFastLowPower", cfg.Width, nil)
		if err != nil {
			return nil, err
		}
		offer, ok := inst.Enabled()[0], false
		for _, e := range inst.Enabled() {
			if e.Remote && e.Parameter() == estim.ParamAvgPower {
				offer, ok = e, true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: provider offers no remote power estimator")
		}
		remote = NewRemotePowerEstimator(inst, offer, cfg.BufferSize, cfg.Nonblocking)
		remote.SkipCompute = cfg.SkipCompute
		remote.EnableCache(cfg.Cache)
		switch s {
		case EstimatorRemote:
			m := module.NewMult("MULT", cfg.Width, ar, br, o)
			m.AddEstimator(remote)
			mult = m
		case MultiplierRemote:
			m, err := NewRemoteMult("MULT", cfg.Width, ar, br, o, inst)
			if err != nil {
				return nil, err
			}
			m.FullyRemote = true
			m.AddEstimator(remote)
			mult = m
		}
	}

	circuit := module.NewCircuit("Example", ina, rega, inb, regb, mult, out)
	simu := module.NewSimulation(circuit)
	setup := estim.NewSetup(s.String())
	setup.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})
	if remote != nil {
		remote.OnDegrade = func(reason string) {
			setup.MarkDegraded("MULT", remote.Param, reason)
		}
	}

	if conn != nil {
		// Session setup (catalogue, bind) happens before the measured
		// window; only simulation-time traffic belongs in the split.
		conn.Meter.Reset()
	}
	//lint:ignore simdeterminism the Table 2/3 wall-clock columns measure the host; the timings never feed signal values.
	start := time.Now()
	stats := simu.Start(setup)
	if stats.Err != nil {
		return nil, stats.Err
	}
	//lint:ignore simdeterminism wall-clock metering for the RealTime/SimTime report columns only.
	simDone := time.Now()
	if remote != nil {
		if err := remote.Close(); err != nil {
			return nil, err
		}
	}
	//lint:ignore simdeterminism wall-clock metering for the RealTime/DrainTime report columns only.
	end := time.Now()
	wall := end.Sub(start)

	products := len(out.History(stats.Scheduler))
	res := &Result{
		Scenario:  s,
		Host:      cfg.Profile.Name,
		RealTime:  wall,
		CPUTime:   wall,
		SimTime:   simDone.Sub(start),
		DrainTime: end.Sub(simDone),
		Products:  products,
	}
	if conn != nil {
		cpu, real := conn.Meter.Split(wall)
		res.CPUTime = cpu
		res.RealTime = real
		res.Blocked = conn.Meter.Blocked()
		res.Calls = conn.Meter.Calls()
		res.Bytes = conn.Meter.Bytes()
		res.CacheHits = conn.Meter.CacheHits()
		res.CacheMisses = conn.Meter.CacheMisses()
		res.CacheBytesSaved = conn.Meter.CacheBytesSaved()
		res.Failovers = conn.Meter.Failovers()
		if rset != nil {
			res.ReplicaStatuses = rset.Statuses()
		}
		fees, err := conn.Client.Fees()
		switch {
		case err == nil:
			res.FeesCents = fees
		case errors.Is(err, rmi.ErrProviderDead):
			// Degraded run: the bill is unreachable, the results are not.
		default:
			return nil, err
		}
	}
	if remote != nil {
		rep := remote.Report()
		res.Power = &rep
		res.PowerSamples = len(rep.Samples)
	}
	return res, nil
}
