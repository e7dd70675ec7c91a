// Command gocad-sim is the IP user's side of a live gocad deployment: it
// connects to a running gocad-server, browses the catalogue, binds the
// remote multiplier, and runs the paper's Figure 2 design — proprietary
// registers around a virtual multiplier — with remote power estimation,
// printing the estimates and the session bill.
//
//	gocad-server -keyfile key.hex &
//	gocad-sim -addr 127.0.0.1:7999 -keyfile key.hex -patterns 100
//
// With -local the same design runs against an in-process provider over a
// pipe (no server needed) — the reference a distributed run is compared
// against. The resilience flags (-timeout, -retries, -recover) arm the
// transport against connection loss: calls are retried with backoff, the
// session is re-established and replayed after a reconnect, and if the
// provider stays dead the run completes with degraded estimates.
//
// The performance knob: -inflight bounds how many RMI calls pipeline on
// the one connection (1 reproduces the stop-and-wait wire schedule, 0
// picks the transport default). It changes no estimate value.
//
// The replication knob (-local only): -replicas N runs the design against
// N equivalent in-process providers behind health-gated circuit breakers —
// a connection loss fails over to the next healthy replica with the
// session replayed there. Replica estimators are deterministic, so it
// changes no estimate value either.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/estim"
	"repro/internal/iplib"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/replica"
	"repro/internal/rmi"
	"repro/internal/security"
)

func main() {
	def := core.DefaultResilience()
	var (
		addr     = flag.String("addr", "127.0.0.1:7999", "gocad-server address")
		keyfile  = flag.String("keyfile", "gocad-key.hex", "hex session key file")
		client   = flag.String("client", "designer", "client name")
		width    = flag.Int("width", 16, "multiplier operand width")
		patterns = flag.Int("patterns", 100, "number of random patterns")
		buffer   = flag.Int("buffer", 5, "pattern buffer size")
		profile  = flag.String("net", "none", "emulated network on top of the real link (none|local|LAN|WAN)")
		remote   = flag.Bool("mr", false, "run the multiplier fully remote (MR) instead of ER")
		local    = flag.Bool("local", false, "use an in-process provider instead of a server (reference run)")
		blocking = flag.Bool("blocking", false, "block on each estimation batch (deterministic sample order)")
		timeout  = flag.Duration("timeout", def.Timeout, "per-call deadline (0 disables)")
		retries  = flag.Int("retries", def.Retry.MaxAttempts, "max attempts per idempotent call (1 disables retry)")
		recover_ = flag.Bool("recover", def.Recover, "replay the session after an automatic reconnect")
		inflight = flag.Int("inflight", 0, "max pipelined RMI calls in flight (0 = default, 1 = stop-and-wait)")
		replicas = flag.Int("replicas", 1, "equivalent in-process provider replicas behind health-gated failover (requires -local)")
	)
	flag.Parse()
	if *replicas > 1 && !*local {
		fatal(errors.New("-replicas needs -local: a live deployment has one server address per process"))
	}

	retry := def.Retry
	retry.MaxAttempts = *retries
	netProfile := netsim.ProfileByName(*profile)

	var (
		ip    *iplib.IPClient
		meter *netsim.Meter
		rset  *replica.Set
	)
	if *local {
		if *replicas > 1 {
			ps := make([]*provider.Provider, *replicas)
			dials := make([]func() (net.Conn, error), *replicas)
			for i := range ps {
				p := provider.New(fmt.Sprintf("provider%d", i))
				if err := p.Register(provider.MultFastLowPower()); err != nil {
					fatal(err)
				}
				ps[i] = p
				dials[i] = core.PipeDialer(p)
			}
			conn, set, err := core.ConnectReplicated(ps, *client, netProfile, dials, replica.BreakerConfig{}, nil)
			if err != nil {
				fatal(err)
			}
			defer conn.Close()
			conn.Harden(core.Resilience{Timeout: *timeout, Retry: retry, Recover: *recover_})
			conn.Client.RPC.MaxInFlight = *inflight
			ip, meter, rset = conn.Client, conn.Meter, set
		} else {
			p := provider.New("provider1")
			if err := p.Register(provider.MultFastLowPower()); err != nil {
				fatal(err)
			}
			conn, err := core.ConnectInProcess(p, *client, netProfile)
			if err != nil {
				fatal(err)
			}
			defer conn.Close()
			conn.Harden(core.Resilience{Timeout: *timeout, Retry: retry, Recover: *recover_})
			conn.Client.RPC.MaxInFlight = *inflight
			ip, meter = conn.Client, conn.Meter
		}
	} else {
		raw, err := os.ReadFile(*keyfile)
		if err != nil {
			fatal(err)
		}
		key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			fatal(fmt.Errorf("bad key file: %w", err))
		}
		rpc, err := rmi.Dial(*addr, *client, security.Key(key))
		if err != nil {
			fatal(err)
		}
		defer rpc.Close()
		meter = &netsim.Meter{}
		rpc.Profile = netProfile
		rpc.Meter = meter
		rpc.Timeout = *timeout
		rpc.Retry = retry
		rpc.MaxInFlight = *inflight
		ip = iplib.NewIPClient(rpc)
		if *recover_ {
			ip.EnableRecovery()
		}
	}

	specs, err := ip.Catalogue()
	if err != nil {
		fatal(err)
	}
	fmt.Println("catalogue:")
	for _, s := range specs {
		fmt.Printf("  %-20s %s (widths %d..%d, license %.0f¢)\n",
			s.Name, s.Description, s.MinWidth, s.MaxWidth, s.LicenseCents)
	}

	inst, err := ip.Bind("MultFastLowPower", *width, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bound %v; offered estimators:\n", inst)
	var offer iplib.EstimatorOffer
	for _, e := range inst.Enabled() {
		fmt.Printf("  %-24s err %.0f%% cost %.2f¢/call remote=%v\n", e.Name, e.ErrPct, e.CostCents, e.Remote)
		if e.Remote && e.Parameter() == estim.ParamAvgPower {
			offer = e
		}
	}

	// Figure 2 design around the virtual multiplier.
	a := module.NewWordConnector("A", *width)
	ar := module.NewWordConnector("AR", *width)
	b := module.NewWordConnector("B", *width)
	br := module.NewWordConnector("BR", *width)
	o := module.NewWordConnector("O", 2**width)
	ina := module.NewRandomPrimaryInput("INA", *width, 1, *patterns, 10, a)
	rega := module.NewRegister("REGA", *width, a, ar)
	inb := module.NewRandomPrimaryInput("INB", *width, 2, *patterns, 10, b)
	regb := module.NewRegister("REGB", *width, b, br)
	out := module.NewPrimaryOutput("OUT", 2**width, o)

	est := core.NewRemotePowerEstimator(inst, offer, *buffer, !*blocking)
	var mult module.Module
	if *remote {
		rm, err := core.NewRemoteMult("MULT", *width, ar, br, o, inst)
		if err != nil {
			fatal(err)
		}
		rm.FullyRemote = true
		rm.AddEstimator(est)
		mult = rm
	} else {
		m := module.NewMult("MULT", *width, ar, br, o)
		m.AddEstimator(est)
		mult = m
	}

	circuit := module.NewCircuit("Example", ina, rega, inb, regb, mult, out)
	simu := module.NewSimulation(circuit)
	setup := estim.NewSetup("run")
	setup.Set(estim.ParamAvgPower, estim.Criteria{Prefer: estim.PreferAccuracy})
	est.OnDegrade = func(reason string) {
		setup.MarkDegraded("MULT", est.Param, reason)
	}

	meter.Reset() // the catalogue and bind calls are not the run's traffic
	start := time.Now()
	stats := simu.Start(setup)
	if stats.Err != nil {
		fatal(stats.Err)
	}
	if err := est.Close(); err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	cpu, real := meter.Split(wall)

	rep := est.Report()
	mode := "ER"
	if *remote {
		mode = "MR"
	}
	// The products are the output history the run left on its scheduler.
	fmt.Printf("\nsimulated %d patterns (%s): %d products observed\n",
		*patterns, mode, len(out.History(stats.Scheduler)))
	fmt.Printf("  remote power: %d samples, avg %.1f µW, peak %.1f µW\n",
		len(rep.Samples), rep.AvgPower, rep.PeakPower)
	fmt.Printf("  CPU time %v, real time %v (blocked on network %v, %d calls, %d bytes)\n",
		cpu.Round(time.Microsecond), real.Round(time.Microsecond),
		meter.Blocked().Round(time.Microsecond), meter.Calls(), meter.Bytes())
	if rset != nil {
		fmt.Printf("  replicas: %d failovers\n", meter.Failovers())
		for i, st := range rset.Statuses() {
			fmt.Printf("    replica %d %-8s %d ok / %d failed, ewma latency %v\n",
				i, st.State, st.Successes, st.Failures, st.EWMALatency.Round(time.Microsecond))
		}
	}
	if rep.Degraded {
		fmt.Printf("  DEGRADED: provider declared dead mid-run; %d batches lost, later estimates are fallback values\n",
			rep.LostBatches)
	}
	fees, err := ip.Fees()
	switch {
	case err == nil:
		fmt.Printf("  session bill: %.1f¢\n", fees)
	case errors.Is(err, rmi.ErrProviderDead):
		fmt.Println("  session bill: unavailable (provider dead)")
	default:
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocad-sim:", err)
	os.Exit(1)
}
