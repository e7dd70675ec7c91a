package sidecar

import (
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/iplib"
	"repro/internal/leakcheck"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// TestSidecarEndpoints: after real traffic the sidecar serves /healthz
// 200, a /metrics page that agrees with the gateway's meters and
// ledger, and the pprof handlers; once a drain begins /healthz reads
// 503 until the owner closes the sidecar.
func TestSidecarEndpoints(t *testing.T) {
	leakcheck.Check(t)
	p := provider.New("gw-provider")
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	ledgerPath := t.TempDir() + "/ledger.tsv"
	g, err := gateway.New(p.Server, gateway.Config{MaxSessions: 8, LedgerPath: ledgerPath})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]security.Key{}
	for _, name := range []string{"alpha", "beta"} {
		key, err := security.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = key
		if err := g.AddTenant(gateway.TenantSpec{Name: name, Key: hex.EncodeToString(key)}); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	side, err := Listen(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { side.Close() })

	for _, tenant := range []string{"alpha", "beta", "alpha"} {
		evalOnce(t, addr, tenant, keys[tenant])
	}
	waitSessions(t, side.Addr(), 0)

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + side.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	entries, err := gateway.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gocad_gateway_admissions_total 3",
		fmt.Sprintf("gocad_gateway_ledger_entries_total %d", len(entries)),
		`gocad_gateway_tenant_fee_cents_total{tenant="alpha"}`,
		"gocad_gateway_frame_latency_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, tenant := range []string{"alpha", "beta"} {
		m, ok := g.MeterFor(tenant)
		if !ok || m.FeeCents <= 0 {
			t.Fatalf("tenant %s metered no fees: %+v", tenant, m)
		}
		exported := metricValue(t, body, fmt.Sprintf("gocad_gateway_tenant_fee_cents_total{tenant=%q}", tenant))
		if math.Abs(exported-m.FeeCents) > 1e-9 || math.Abs(exported-g.Ledger().Sum(tenant)) > 1e-9 {
			t.Errorf("tenant %s: /metrics %.9f, meter %.9f, ledger %.9f", tenant, exported, m.FeeCents, g.Ledger().Sum(tenant))
		}
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	if err := g.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz after drain = %d %q, want 503 draining", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics after drain = %d", code)
	}
	if err := side.Close(); err != nil {
		t.Fatalf("close sidecar: %v", err)
	}
	if _, err := http.Get("http://" + side.Addr() + "/healthz"); err == nil {
		t.Fatal("sidecar still answers after Close")
	}
}

// evalOnce opens one tenant session, binds the multiplier, runs three
// evaluations, and closes the session.
func evalOnce(t *testing.T, addr, tenant string, key security.Key) {
	t.Helper()
	cli, err := rmi.Dial(addr, tenant, key)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	defer cli.Close()
	const width = 4
	inst, err := iplib.NewIPClient(cli).Bind("MultFastLowPower", width, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]signal.Bit, 2*width)
	for i := 0; i < 3; i++ {
		in[i] = signal.B1
		if _, err := inst.Eval(in); err != nil {
			t.Fatal(err)
		}
	}
}

// waitSessions polls /metrics until the active-session gauge reads
// want: session close is asynchronous with client close.
func waitSessions(t *testing.T, addr string, want float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := metricValue(t, string(body), "gocad_gateway_sessions_active")
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gocad_gateway_sessions_active stuck at %g, want %g", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue returns the value of the exposition line that starts with
// series followed by a space.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s series", series)
	return 0
}
