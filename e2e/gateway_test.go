package e2e

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/iplib"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// TestMultiTenantDrainOnSIGTERM is the gateway's deployment contract
// end to end: a gocad-server process running with a tenant config file,
// a metrics sidecar, and a billing ledger serves two tenants' real
// traffic, exports per-tenant counters over /metrics, and on SIGTERM
// drains gracefully — clean exit, drain transcript, and a persisted
// ledger whose entries cover every tenant that was billed.
func TestMultiTenantDrainOnSIGTERM(t *testing.T) {
	serverBin, _ := buildTools(t)
	dir := t.TempDir()

	tenants := []string{"acme", "zenith"}
	keys := map[string]security.Key{}
	var specs []gateway.TenantSpec
	for _, name := range tenants {
		key, err := security.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = key
		specs = append(specs, gateway.TenantSpec{Name: name, Key: hex.EncodeToString(key)})
	}
	cfgPath := filepath.Join(dir, "tenants.json")
	cfg, err := json.Marshal(map[string][]gateway.TenantSpec{"tenants": specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, cfg, 0o600); err != nil {
		t.Fatal(err)
	}
	ledgerPath := filepath.Join(dir, "ledger.tsv")

	cmd, addr, _, output := startServerProc(t, serverBin,
		"-tenant-config", cfgPath,
		"-metrics-addr", "127.0.0.1:0",
		"-ledger", ledgerPath,
		"-drain-timeout", "5s")

	// Both tenants run real billable traffic.
	for _, name := range tenants {
		cli, err := rmi.Dial(addr, name, keys[name])
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		inst, err := iplib.NewIPClient(cli).Bind("MultFastLowPower", 4, nil)
		if err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
		if _, err := inst.Eval(make([]signal.Bit, 8)); err != nil {
			t.Fatalf("eval %s: %v", name, err)
		}
		defer cli.Close()
	}

	// The sidecar exports both tenants' counters while traffic is live.
	maddr := metricsAddr(t, output)
	body := fetch(t, "http://"+maddr+"/metrics")
	for _, want := range []string{
		`gocad_gateway_tenant_calls_total{tenant="acme"}`,
		`gocad_gateway_tenant_calls_total{tenant="zenith"}`,
		"gocad_gateway_admissions_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if health := fetch(t, "http://"+maddr+"/healthz"); !strings.Contains(health, "ok") {
		t.Errorf("/healthz = %q", health)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly after SIGTERM: %v\n%s", err, output())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not exit within 15s of SIGTERM\n%s", output())
	}
	// The transcript scanner drains stdout on its own goroutine; give
	// the final lines a beat to land.
	var got string
	for stop := time.Now().Add(2 * time.Second); ; {
		got = output()
		if strings.Contains(got, "drained, exiting") || time.Now().After(stop) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(got, "draining") || !strings.Contains(got, "drained, exiting") {
		t.Errorf("shutdown transcript missing drain markers:\n%s", got)
	}

	// The billing trail survives the process: every tenant that ran
	// traffic has positive persisted fees.
	entries, err := gateway.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, e := range entries {
		sums[e.Tenant] += e.Cents
	}
	for _, name := range tenants {
		if sums[name] <= 0 {
			t.Errorf("tenant %s has no persisted fees in %s (entries: %d)", name, ledgerPath, len(entries))
		}
	}
}

// metricsAddr extracts the sidecar's bound address from the server's
// startup transcript.
func metricsAddr(t *testing.T, output func() string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(output(), "\n") {
			if i := strings.Index(line, "metrics: http://"); i >= 0 {
				rest := strings.Fields(line[i+len("metrics: http://"):])[0]
				return strings.TrimSuffix(rest, "/metrics")
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its metrics address:\n%s", output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetch GETs a URL and returns the body.
func fetch(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLoadgenSelftest runs the load generator's self-contained
// acceptance storm (4x MaxSessions against an in-process gateway) as a
// subprocess — the same smoke test CI wires into `make loadgen`.
func TestLoadgenSelftest(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gocad-loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/gocad-loadgen").CombinedOutput(); err != nil {
		t.Fatalf("build gocad-loadgen: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-selftest").CombinedOutput()
	if err != nil {
		t.Fatalf("gocad-loadgen -selftest: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "selftest PASS") {
		t.Fatalf("selftest output missing PASS:\n%s", out)
	}
}
