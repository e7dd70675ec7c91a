// Command gocad-server runs an IP provider's JavaCAD server: it hosts
// the standard component catalogue (the MultFastLowPower multiplier and
// the IP1 half-adder macro), generates a shared client key, and serves
// authenticated sessions over TCP behind the multi-tenant gateway —
// admission control, per-tenant quotas and fee metering, slow-client
// protection, and a metrics/health sidecar.
//
//	gocad-server -addr 127.0.0.1:7999 -client designer -keyfile key.hex
//
// The hex-encoded session key is written to -keyfile; hand it to
// gocad-sim (or any gocad client) to connect. For multi-tenant
// deployments, -tenant-config names a JSON file of tenant specs (name,
// key, per-tenant connection/rate/fee limits) instead:
//
//	gocad-server -tenant-config tenants.json -max-sessions 256 \
//	    -metrics-addr 127.0.0.1:9090 -ledger fees.tsv
//
// With -metrics-addr set, /healthz, /metrics (Prometheus text), and
// /debug/pprof are served on that address. On SIGTERM the sidecar stays
// up, /healthz reading 503, until the drain returns.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/gateway/sidecar"
	"repro/internal/provider"
	"repro/internal/security"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7999", "listen address")
		client  = flag.String("client", "designer", "authorized client name (ignored with -tenant-config)")
		keyfile = flag.String("keyfile", "gocad-key.hex", "file receiving the hex session key (ignored with -tenant-config)")
		name    = flag.String("name", "provider1", "provider display name")
		idle    = flag.Duration("idle-timeout", gateway.DefaultIdleTimeout,
			"drop sessions idle longer than this (negative disables)")
		drain = flag.Duration("drain-timeout", 5*time.Second,
			"on SIGTERM/interrupt, let in-flight requests finish for up to this long before force-closing")
		maxSessions = flag.Int("max-sessions", gateway.DefaultMaxSessions,
			"admission control: max concurrent sessions across all tenants")
		tenantConns = flag.Int("max-conns-per-tenant", gateway.DefaultMaxConnsPerTenant,
			"admission control: max concurrent sessions per tenant (tenant specs may override)")
		acceptQueue = flag.Int("accept-queue", gateway.DefaultAcceptQueue,
			"admission control: connections allowed beyond -max-sessions before fast-fail rejection")
		handshakeTO = flag.Duration("handshake-timeout", gateway.DefaultHandshakeTimeout,
			"slow-client protection: deadline for a connection's pre-session phase (negative disables)")
		writeTO = flag.Duration("write-timeout", gateway.DefaultWriteTimeout,
			"slow-client protection: per-response-frame write deadline (negative disables)")
		tenantCfg = flag.String("tenant-config", "",
			"JSON tenant config ({\"tenants\":[{name,key,maxConns,callsPerSec,bytesPerSec,feeCeilingCents}]})")
		metricsAddr = flag.String("metrics-addr", "",
			"serve /healthz, /metrics, /debug/pprof on this address (empty disables)")
		ledgerPath = flag.String("ledger", "", "append-only billing ledger file (empty keeps fees in memory)")
	)
	flag.Parse()

	p := provider.New(*name)
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		fatal(err)
	}
	if err := p.Register(provider.HalfAdderIP1()); err != nil {
		fatal(err)
	}

	g, err := gateway.New(p.Server, gateway.Config{
		MaxSessions:       *maxSessions,
		MaxConnsPerTenant: *tenantConns,
		AcceptQueue:       *acceptQueue,
		HandshakeTimeout:  *handshakeTO,
		IdleTimeout:       *idle,
		WriteTimeout:      *writeTO,
		LedgerPath:        *ledgerPath,
		Logf:              log.Printf,
	})
	if err != nil {
		fatal(err)
	}

	if *tenantCfg != "" {
		tenants, err := gateway.LoadTenantConfig(*tenantCfg)
		if err != nil {
			fatal(err)
		}
		for _, t := range tenants {
			if err := g.AddTenant(t); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("  tenants: %d loaded from %s\n", len(tenants), *tenantCfg)
	} else {
		key, err := security.NewKey()
		if err != nil {
			fatal(err)
		}
		if err := g.AddTenant(gateway.TenantSpec{Name: *client, Key: hex.EncodeToString(key)}); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*keyfile, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
			fatal(err)
		}
		fmt.Printf("  authorized client: %s (key in %s)\n", *client, *keyfile)
	}

	bound, err := g.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gocad-server %q listening on %s\n", *name, bound)
	fmt.Printf("  admission: max %d sessions, %d/tenant, accept queue %d\n",
		*maxSessions, *tenantConns, *acceptQueue)
	fmt.Println("  catalogue: MultFastLowPower, IP1-HalfAdder")
	var side *sidecar.Sidecar
	if *metricsAddr != "" {
		side, err = sidecar.Listen(g, *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  metrics: http://%s/metrics (healthz, pprof)\n", side.Addr())
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Printf("draining (timeout %v)\n", *drain)
	if err := g.Drain(*drain); err != nil {
		fmt.Fprintln(os.Stderr, "gocad-server: drain:", err)
	}
	if side != nil {
		if err := side.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gocad-server: metrics sidecar:", err)
		}
	}
	if err := p.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gocad-server: shutdown:", err)
	}
	fmt.Println("drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocad-server:", err)
	os.Exit(1)
}
