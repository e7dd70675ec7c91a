package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iplib"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/rmi"
)

const (
	mrLocalSizes = "MR width=16 patterns=100 buffer=5 net=local nonblocking"
	erWANSizes   = "ER width=16 patterns=20 buffer=5 net=WAN nonblocking"
)

// prepareMRLocal is the Table 2 row where every multiplier evaluation is
// a synchronous remote call, on the emulated same-host network.
func prepareMRLocal(seed int64, _ string, _ bool) (workload, error) {
	cfg := core.DefaultConfig()
	cfg.Profile = netsim.Local
	cfg.Seed = seed
	return newScenario("mr-local", core.MultiplierRemote, cfg)
}

// prepareERWAN is the latency-hiding row: only the power estimator is
// remote, reached over the emulated WAN in a few large batches.
func prepareERWAN(seed int64, _ string, _ bool) (workload, error) {
	cfg := core.DefaultConfig()
	cfg.Patterns = 20
	cfg.Profile = netsim.WAN
	cfg.Seed = seed
	return newScenario("er-wan", core.EstimatorRemote, cfg)
}

// scenarioWorkload runs one core.Run per operation; each run builds its
// own provider and session.
type scenarioWorkload struct {
	name     string
	scenario core.Scenario
	cfg      core.Config
	cold     *core.Result
	coldFP   string

	splits              []coreSplit
	evals, powers, bind []time.Duration // provider dispatch per method
}

func newScenario(name string, s core.Scenario, cfg core.Config) (*scenarioWorkload, error) {
	res, err := core.Run(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	return &scenarioWorkload{name: name, scenario: s, cfg: cfg, cold: res, coldFP: res.Fingerprint()}, nil
}

// check verifies one run against the cold run.
func (w *scenarioWorkload) check(res *core.Result) error {
	if res.PowerSamples != w.cfg.Patterns {
		return fmt.Errorf("%d power samples for %d patterns", res.PowerSamples, w.cfg.Patterns)
	}
	if res.Power == nil || res.Power.Degraded {
		return fmt.Errorf("remote estimation degraded")
	}
	if fp := res.Fingerprint(); fp != w.coldFP {
		return fmt.Errorf("fingerprint %s differs from the cold run's %s", fp, w.coldFP)
	}
	return nil
}

func (w *scenarioWorkload) fingerprint() string { return w.coldFP }

func (w *scenarioWorkload) checkCold(seed int64) error {
	if err := w.check(w.cold); err != nil {
		return err
	}
	return checkGolden(w.name, seed, w.coldFP)
}

func (w *scenarioWorkload) close() error { return nil }

func (w *scenarioWorkload) run(lim limits, tr *tracer) *measurement {
	m := serialLoop(lim, tr, w.op)
	if tr != nil {
		w.report(m)
	}
	return m
}

func (w *scenarioWorkload) op(op int, tr *tracer) (time.Duration, error) {
	cfg := w.cfg
	var ct *callTrace
	if tr != nil {
		ct = &callTrace{}
		cfg.DialVia = ct.dialVia
	}
	t0 := time.Now()
	res, err := core.Run(w.scenario, cfg)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	if err := w.check(res); err != nil {
		return 0, err
	}
	if ct != nil {
		w.splits = append(w.splits, w.split(op, tr, ct, res, t0, t1))
	}
	return t1.Sub(t0), nil
}

// callTrace observes one core.Run session from the provider's side: the
// dial, the session's opening, and every dispatched call.
type callTrace struct {
	mu     sync.Mutex
	dialed time.Time
	opened time.Time
	calls  []serverCall
}

type serverCall struct {
	method     string
	start, end time.Time
	failed     bool
}

// dialVia is a core.Config.DialVia: it installs the provider's server
// hooks, which run before any connection is served, and times the dial.
func (c *callTrace) dialVia(p *provider.Provider) func() (net.Conn, error) {
	p.Server.Hooks = &rmi.ServerHooks{
		SessionOpen: func(*rmi.Session) {
			now := time.Now()
			c.mu.Lock()
			c.opened = now
			c.mu.Unlock()
		},
		AfterCall: func(_ *rmi.Session, method string, _ int, d time.Duration, failed bool) {
			end := time.Now()
			c.mu.Lock()
			c.calls = append(c.calls, serverCall{method, end.Add(-d), end, failed})
			c.mu.Unlock()
		},
	}
	dial := core.PipeDialer(p)
	return func() (net.Conn, error) {
		now := time.Now()
		c.mu.Lock()
		if c.dialed.IsZero() {
			c.dialed = now
		}
		c.mu.Unlock()
		return dial()
	}
}

// coreSplit is one traced core.Run broken down along the layer tree:
// wall = session + real, real = cpu + blocked,
// blocked = wait + blockDispatch + wire.
type coreSplit struct {
	wall, session, real, cpu, sim, drain, blocked time.Duration
	// wait is the modelled emulated-network wait of the calls the client
	// blocked on; blockDispatch their provider dispatch; wire the rest of
	// the blocked time (codec, mux, pipe and scheduling).
	wait, blockDispatch, wire time.Duration
	dispatch                  time.Duration // every call's dispatch
	handshake                 time.Duration
	calls, bytes, batches     int64
	samples, failed           int64
}

// modelledWait is the delay netsim adds after one call: twice the
// one-way latency, the serialization time of an average call's bytes,
// and the jitter's mean (two draws below Jitter each way).
func modelledWait(p netsim.Profile, res *core.Result) time.Duration {
	var perCall int64
	if res.Calls > 0 {
		perCall = res.Bytes / res.Calls
	}
	return 2*p.OneWay + time.Duration(int64(p.PerKB)*perCall/1024) + p.Jitter
}

func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	lo, hi := a0, a1
	if b0.After(lo) {
		lo = b0
	}
	if b1.Before(hi) {
		hi = b1
	}
	if hi.After(lo) {
		return hi.Sub(lo)
	}
	return 0
}

// split attributes one traced run's time to layers and records its spans.
func (w *scenarioWorkload) split(op int, tr *tracer, ct *callTrace, res *core.Result, t0, t1 time.Time) coreSplit {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	s := coreSplit{
		wall: t1.Sub(t0), real: res.RealTime, cpu: res.CPUTime, sim: res.SimTime,
		drain: res.DrainTime, blocked: res.Blocked,
		calls: res.Calls, bytes: res.Bytes, samples: int64(res.PowerSamples),
	}
	s.session = s.wall - s.real
	if !ct.opened.IsZero() {
		s.handshake = ct.opened.Sub(ct.dialed)
	}
	// core.Run asks for the bill right after its measured window closes,
	// so the Fees dispatch marks the window's end.
	end := t1
	for _, c := range ct.calls {
		if c.method == iplib.MethodFees {
			end = c.start
		}
	}
	winStart, simDone := end.Add(-res.RealTime), end.Add(-res.DrainTime)
	wait := modelledWait(w.cfg.Profile, res)

	root := tr.add("op", op, -1, t0, t1)
	realSpan := tr.add("core.real", op, root, winStart, end)
	simSpan := tr.add("core.sim", op, realSpan, winStart, simDone)
	drainSpan := tr.add("core.drain", op, realSpan, simDone, end)
	for _, c := range ct.calls {
		d := c.end.Sub(c.start)
		s.dispatch += d
		if c.failed {
			s.failed++
		}
		parent := root // session set-up and the bill
		switch {
		case c.start.Before(winStart) || !c.start.Before(end):
		case c.start.Before(simDone):
			parent = simSpan
		default:
			parent = drainSpan
		}
		tr.add("provider."+c.method, op, parent, c.start, c.end)
		switch {
		case c.method == iplib.MethodPowerBatch:
			s.batches++
			w.powers = append(w.powers, d)
			// A nonblocking batch blocks the caller only where it runs
			// past the end of the simulation, into the drain.
			if done := c.end.Add(wait); done.After(simDone) {
				wt := min(wait, done.Sub(simDone))
				s.wait += wt
				s.blockDispatch += overlap(c.start, c.end, simDone, end)
				tr.add("netsim.wait", op, drainSpan, done.Add(-wt), done)
			}
		case parent != root: // a synchronous call inside the window
			s.wait += wait
			s.blockDispatch += d
			tr.add("netsim.wait", op, parent, c.end, c.end.Add(wait))
		}
		switch c.method {
		case iplib.MethodEval:
			w.evals = append(w.evals, d)
		case iplib.MethodBind:
			w.bind = append(w.bind, d)
		}
	}
	s.wire = s.blocked - s.wait - s.blockDispatch
	return s
}

// report sets the per-layer metrics (per-operation medians) and notes
// the mean layer tree.
func (w *scenarioWorkload) report(m *measurement) {
	if len(w.splits) == 0 {
		return
	}
	med := func(f func(coreSplit) float64) float64 { return medianBy(w.splits, f) }
	l := m.layers
	l["core.session_ms"] = med(func(s coreSplit) float64 { return ms(s.session) })
	l["core.real_ms"] = med(func(s coreSplit) float64 { return ms(s.real) })
	l["core.cpu_ms"] = med(func(s coreSplit) float64 { return ms(s.cpu) })
	l["core.sim_ms"] = med(func(s coreSplit) float64 { return ms(s.sim) })
	l["core.drain_ms"] = med(func(s coreSplit) float64 { return ms(s.drain) })
	l["core.blocked_ms"] = med(func(s coreSplit) float64 { return ms(s.blocked) })
	l["estim.batches"] = med(func(s coreSplit) float64 { return float64(s.batches) })
	l["estim.patterns_per_batch"] = med(func(s coreSplit) float64 {
		if s.batches == 0 {
			return 0
		}
		return float64(s.samples) / float64(s.batches)
	})
	l["rmi.calls"] = med(func(s coreSplit) float64 { return float64(s.calls) })
	l["rmi.bytes"] = med(func(s coreSplit) float64 { return float64(s.bytes) })
	l["rmi.wire_ms"] = med(func(s coreSplit) float64 { return ms(s.wire) })
	l["rmi.handshake_us_p50"] = med(func(s coreSplit) float64 { return float64(s.handshake) / float64(time.Microsecond) })
	l["netsim.wait_ms"] = med(func(s coreSplit) float64 { return ms(s.wait) })
	l["provider.dispatch_ms"] = med(func(s coreSplit) float64 { return ms(s.dispatch) })
	l["provider.eval_us_p50"] = median(micros(w.evals))
	l["provider.power_batch_us_p50"] = median(micros(w.powers))
	l["provider.bind_us_p50"] = median(micros(w.bind))
	var failed int64
	var sum coreSplit
	for _, s := range w.splits {
		failed += s.failed
		sum.wall += s.wall
		sum.session += s.session
		sum.cpu += s.cpu
		sum.wait += s.wait
		sum.blockDispatch += s.blockDispatch
		sum.wire += s.wire
	}
	l["rmi.failed_attempts"] = float64(failed)
	n := float64(len(w.splits))
	mean := func(d time.Duration) float64 { return ms(d) / n }
	leaves := sum.session + sum.cpu + sum.wait + sum.blockDispatch + sum.wire
	m.notes = append(m.notes, fmt.Sprintf(
		"# layer tree, mean per traced op: run %.3f ms = core.session %.3f + core.cpu %.3f + netsim.wait %.3f + provider.dispatch(blocking) %.3f + rmi.wire %.3f (leaves sum to %.1f%% of run)",
		mean(sum.wall), mean(sum.session), mean(sum.cpu), mean(sum.wait), mean(sum.blockDispatch), mean(sum.wire),
		100*float64(leaves)/float64(sum.wall)))
}
