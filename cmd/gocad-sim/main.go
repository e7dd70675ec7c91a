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
// The performance knobs: -inflight bounds how many RMI calls pipeline on
// the one connection (1 reproduces the stop-and-wait wire schedule, 0
// picks the transport default), and -est-cache short-circuits repeated
// estimation batches client-side with a content-addressed cache, skipping
// the round trip entirely. Neither changes any estimate value.
//
// The replication knobs (both -local only): -replicas N runs the design
// against N equivalent in-process providers behind health-gated circuit
// breakers — a connection loss fails over to the next healthy replica
// with the session journal replayed there — and -hedge-after D re-issues
// a batch still unanswered after D to a second replica, first answer
// wins. Replica estimators are deterministic, so neither changes any
// estimate value either.
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
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
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
		timeout  = flag.Duration("timeout", 2*time.Second, "per-call deadline (0 disables)")
		retries  = flag.Int("retries", 4, "max attempts per idempotent call (1 disables retry)")
		recover_ = flag.Bool("recover", true, "replay the session after an automatic reconnect")
		inflight = flag.Int("inflight", 0, "max pipelined RMI calls in flight (0 = default, 1 = stop-and-wait)")
		estcache = flag.Bool("est-cache", false, "short-circuit repeated estimation batches with a content-addressed cache")
		replicas = flag.Int("replicas", 1, "equivalent in-process provider replicas behind health-gated failover (requires -local)")
		hedge    = flag.Duration("hedge-after", 0, "re-issue a still-unanswered estimation batch to a second replica after this long (0 disables; requires -local -replicas ≥ 2)")
		shards   = flag.Int("shards", 1, "partition the design across N concurrent schedulers (bit-identical results at any N)")
		shardWin = flag.Int("shard-window", 0, "conservative synchronization window for sharded runs (0 = default)")
	)
	flag.Parse()
	if *replicas > 1 && !*local {
		fatal(errors.New("-replicas needs -local: a live deployment has one server address per process"))
	}
	if *hedge > 0 && (*replicas < 2 || !*local) {
		fatal(errors.New("-hedge-after needs -local and -replicas ≥ 2 (the hedge runs on a second replica)"))
	}

	retry := rmi.DefaultRetry
	retry.MaxAttempts = *retries
	netProfile := netsim.ProfileByName(*profile)

	var (
		ip        *iplib.IPClient
		meter     *netsim.Meter
		rset      *replica.Set
		hedgeProv *provider.Provider
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
			hedgeProv = ps[len(ps)-1]
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
	if *estcache {
		est.EnableCache(core.NewEstimationCache())
	}
	if *hedge > 0 && hedgeProv != nil {
		hconn, err := core.ConnectVia(hedgeProv, *client+"-hedge", netProfile, core.PipeDialer(hedgeProv))
		if err != nil {
			fatal(err)
		}
		defer hconn.Close()
		hinst, err := hconn.Client.Bind("MultFastLowPower", *width, nil)
		if err != nil {
			fatal(err)
		}
		est.EnableHedge(hinst, *hedge)
	}
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

	start := time.Now()
	// outID names the scheduler whose history holds OUT's products — the
	// single scheduler classically, OUT's owning shard otherwise.
	var outID sim.SchedulerID
	if *shards > 1 {
		sst := shard.Run(circuit, shard.Options{Shards: *shards, Window: *shardWin, Setup: setup})
		if sst.Err != nil {
			fatal(sst.Err)
		}
		outID = sst.OwnerOf(out)
		fmt.Printf("sharded across %d schedulers: cut cost %d, %d cross-shard tokens, %d barriers, %d solo turns\n",
			len(sst.Schedulers), sst.CutCost, sst.CrossTokens, sst.Barriers, sst.SoloTurns)
	} else {
		stats := simu.Start(setup)
		if stats.Err != nil {
			fatal(stats.Err)
		}
		outID = stats.Scheduler
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
	fmt.Printf("\nsimulated %d patterns (%s): %d products observed\n",
		*patterns, mode, len(out.History(outID)))
	fmt.Printf("  remote power: %d samples, avg %.1f µW, peak %.1f µW\n",
		len(rep.Samples), rep.AvgPower, rep.PeakPower)
	fmt.Printf("  CPU time %v, real time %v (blocked on network %v, %d calls, %d bytes)\n",
		cpu.Round(time.Microsecond), real.Round(time.Microsecond),
		meter.Blocked().Round(time.Microsecond), meter.Calls(), meter.Bytes())
	if *estcache {
		fmt.Printf("  estimation cache: %d hits, %d misses, %d request bytes saved\n",
			rep.CacheHits, rep.CacheMisses, rep.CacheBytesSaved)
	}
	if rset != nil {
		fmt.Printf("  replicas: %d failovers, %d hedged batches (%d hedge wins)\n",
			meter.Failovers(), meter.HedgedBatches(), meter.HedgeWins())
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
