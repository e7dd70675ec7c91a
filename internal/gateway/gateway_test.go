package gateway

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/iplib"
	"repro/internal/leakcheck"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// startGateway brings up a full provider behind a gateway on an
// ephemeral TCP port. Tenants with empty keys get generated ones; the
// returned map holds every tenant's session key.
func startGateway(t *testing.T, cfg Config, tenants ...TenantSpec) (*Gateway, string, map[string]security.Key) {
	t.Helper()
	p := provider.New("gw-provider")
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	g, err := New(p.Server, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]security.Key, len(tenants))
	for _, spec := range tenants {
		if spec.Key == "" {
			key, err := security.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			spec.Key = hex.EncodeToString(key)
		}
		raw, err := spec.SessionKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[spec.Name] = raw
		if err := g.AddTenant(spec); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, addr, keys
}

// dial connects one tenant session and registers cleanup.
func dial(t *testing.T, addr, tenant string, key security.Key) *rmi.Client {
	t.Helper()
	cli, err := rmi.Dial(addr, tenant, key)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// waitActive polls the admitted-session gauge to a target — session
// close is asynchronous with client close.
func waitActive(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if active, _ := g.occupancy(); active == want {
			return
		}
		if time.Now().After(deadline) {
			active, queued := g.occupancy()
			t.Fatalf("occupancy stuck at active=%d queued=%d, want active=%d", active, queued, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionBoundary is the exact-capacity contract: MaxSessions
// sessions are admitted, the next one is refused with a typed
// over-capacity error, and closing any admitted session frees exactly
// one slot.
func TestAdmissionBoundary(t *testing.T) {
	leakcheck.Check(t)
	const max = 3
	g, addr, keys := startGateway(t, Config{MaxSessions: max, AcceptQueue: 4},
		TenantSpec{Name: "alpha", MaxConns: max + 1})

	clients := make([]*rmi.Client, max)
	for i := range clients {
		clients[i] = dial(t, addr, "alpha", keys["alpha"])
	}
	waitActive(t, g, max)

	_, err := rmi.Dial(addr, "alpha", keys["alpha"])
	if err == nil {
		t.Fatal("session over MaxSessions was admitted")
	}
	var hs *rmi.HandshakeError
	if !errors.As(err, &hs) {
		t.Fatalf("over-capacity rejection not a HandshakeError: %v", err)
	}
	if got := ReasonOf(err); got != ReasonOverCapacity {
		t.Fatalf("rejection reason = %q, want %q (err: %v)", got, ReasonOverCapacity, err)
	}

	// Releasing one slot readmits exactly one session.
	clients[0].Close()
	waitActive(t, g, max-1)
	dial(t, addr, "alpha", keys["alpha"])
	waitActive(t, g, max)
}

// TestTenantConnLimit: one tenant saturating its own connection limit
// is refused with a tenant-scoped reason while other tenants still get
// in — per-tenant isolation at admission.
func TestTenantConnLimit(t *testing.T) {
	leakcheck.Check(t)
	_, addr, keys := startGateway(t, Config{MaxSessions: 8},
		TenantSpec{Name: "greedy", MaxConns: 1},
		TenantSpec{Name: "bystander"})

	dial(t, addr, "greedy", keys["greedy"])
	_, err := rmi.Dial(addr, "greedy", keys["greedy"])
	if got := ReasonOf(err); got != ReasonTenantConns {
		t.Fatalf("second greedy session: reason = %q, err = %v; want %q", got, err, ReasonTenantConns)
	}
	dial(t, addr, "bystander", keys["bystander"]) // unaffected
}

// TestQueueFullFastFail: with the serving slots and the accept queue
// both held, the next connection gets a typed queue-full rejection in
// its own codec, promptly — the gateway's core never-hang promise. The
// queue slot is held by a slowloris dialer, which the handshake
// deadline then reaps.
func TestQueueFullFastFail(t *testing.T) {
	leakcheck.Check(t)
	g, addr, keys := startGateway(t,
		Config{MaxSessions: 1, AcceptQueue: 1, HandshakeTimeout: 500 * time.Millisecond},
		TenantSpec{Name: "alpha", MaxConns: 4})

	dial(t, addr, "alpha", keys["alpha"]) // occupies the one serving slot
	waitActive(t, g, 1)

	loris, err := net.Dial("tcp", addr) // occupies the queue slot, says nothing
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	// Both slots held: the next dial must fail fast and typed.
	start := time.Now()
	_, err = rmi.Dial(addr, "alpha", keys["alpha"])
	if got := ReasonOf(err); got != ReasonQueueFull {
		t.Fatalf("overflow dial: reason = %q, err = %v; want %q", got, err, ReasonQueueFull)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("queue-full rejection took %v", d)
	}

	// Slow-client protection: the silent dialer is reaped at the
	// handshake deadline, freeing its queue slot.
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := loris.Read(make([]byte, 1)); err == nil {
		t.Fatal("slowloris connection still open after handshake deadline")
	}
}

// evalDigest runs the deterministic multiplier workload (n Evals of a
// fixed pattern sequence) and digests every output bit.
func evalDigest(ip *iplib.IPClient, width, n int) (string, error) {
	inst, err := ip.Bind("MultFastLowPower", width, nil)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		a, b := uint64(i*3+1)&mask, uint64(i*5+2)&mask
		in := make([]signal.Bit, 2*width)
		for j := 0; j < width; j++ {
			if a>>j&1 == 1 {
				in[j] = signal.B1
			}
			if b>>j&1 == 1 {
				in[width+j] = signal.B1
			}
		}
		out, err := inst.Eval(in)
		if err != nil {
			return "", err
		}
		for _, bit := range out {
			h.Write([]byte{byte(bit)})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestQuotaExhaustionMidPipeline: a tenant crossing its fee ceiling
// mid-workload starts getting typed over-quota call errors on a
// still-live session, while an unrelated tenant's concurrent workload
// completes with the exact digest of an unpressured run — quota
// enforcement must never poison other tenants.
func TestQuotaExhaustionMidPipeline(t *testing.T) {
	leakcheck.Check(t)
	const width, n = 4, 12
	g, addr, keys := startGateway(t, Config{MaxSessions: 8},
		TenantSpec{Name: "capped", FeeCeilingCents: 0.000001},
		TenantSpec{Name: "free"})

	// Reference digest before any quota pressure exists.
	ref := dial(t, addr, "free", keys["free"])
	want, err := evalDigest(iplib.NewIPClient(ref), width, n)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	waitActive(t, g, 0)

	var wg sync.WaitGroup
	var freeDigest string
	var freeErr, cappedErr error
	cappedCli := dial(t, addr, "capped", keys["capped"])
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, cappedErr = evalDigest(iplib.NewIPClient(cappedCli), width, n)
	}()
	go func() {
		defer wg.Done()
		cli := dial(t, addr, "free", keys["free"])
		freeDigest, freeErr = evalDigest(iplib.NewIPClient(cli), width, n)
	}()
	wg.Wait()

	if cappedErr == nil {
		t.Fatal("capped tenant finished its workload under a near-zero fee ceiling")
	}
	var re *rmi.RemoteError
	if !errors.As(cappedErr, &re) {
		t.Fatalf("over-quota error not a RemoteError: %v", cappedErr)
	}
	if got := ReasonOf(cappedErr); got != ReasonOverQuota {
		t.Fatalf("capped tenant error reason = %q (err: %v), want %q", got, cappedErr, ReasonOverQuota)
	}
	// The session transport survives the refusals: one more call gets an
	// answer from the gateway, a result or a remote error.
	if _, err := iplib.NewIPClient(cappedCli).Fees(); err != nil && !errors.As(err, &re) {
		t.Fatalf("over-quota refusals killed the session transport: %v", err)
	}
	if freeErr != nil {
		t.Fatalf("free tenant workload failed during capped tenant's quota exhaustion: %v", freeErr)
	}
	if freeDigest != want {
		t.Fatalf("free tenant digest changed under a neighbor's quota pressure:\n  got  %s\n  want %s", freeDigest, want)
	}
	m, _ := g.MeterFor("capped")
	if m.OverQuota == 0 {
		t.Fatal("capped tenant's meter recorded no over-quota refusals")
	}
}

// TestMetricsLedgerReconcile: after real traffic, the in-memory meter
// and the persisted ledger file agree on every tenant's fees. The HTTP
// half (healthz, /metrics, pprof) is sidecar.TestSidecarEndpoints.
func TestMetricsLedgerReconcile(t *testing.T) {
	leakcheck.Check(t)
	ledgerPath := t.TempDir() + "/ledger.tsv"
	g, addr, keys := startGateway(t, Config{MaxSessions: 8, LedgerPath: ledgerPath},
		TenantSpec{Name: "alpha"}, TenantSpec{Name: "beta"})

	for _, tenant := range []string{"alpha", "beta", "alpha"} {
		cli := dial(t, addr, tenant, keys[tenant])
		if _, err := evalDigest(iplib.NewIPClient(cli), 4, 3); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	waitActive(t, g, 0)

	entries, err := ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("ledger file empty after billable traffic")
	}
	sums := map[string]float64{}
	for _, e := range entries {
		sums[e.Tenant] += e.Cents
	}
	for _, tenant := range []string{"alpha", "beta"} {
		m, ok := g.MeterFor(tenant)
		if !ok {
			t.Fatalf("no meter for %s", tenant)
		}
		if m.FeeCents <= 0 {
			t.Fatalf("tenant %s metered no fees", tenant)
		}
		if math.Abs(sums[tenant]-m.FeeCents) > 1e-9 {
			t.Fatalf("tenant %s: ledger file %.9f != meter %.9f", tenant, sums[tenant], m.FeeCents)
		}
		if math.Abs(g.Ledger().Sum(tenant)-m.FeeCents) > 1e-9 {
			t.Fatalf("tenant %s: ledger sum %.9f != meter %.9f", tenant, g.Ledger().Sum(tenant), m.FeeCents)
		}
	}
}

// TestCloseSettlesLedger: Close cuts a live session, so it serves no
// further call, and waits for the session's final fees to settle before
// it closes the ledger: the ledger file sums to the meter and no append
// failed.
func TestCloseSettlesLedger(t *testing.T) {
	leakcheck.Check(t)
	ledgerPath := t.TempDir() + "/ledger.tsv"
	g, addr, keys := startGateway(t, Config{MaxSessions: 4, LedgerPath: ledgerPath},
		TenantSpec{Name: "alpha"})
	const width = 4
	inst, err := iplib.NewIPClient(dial(t, addr, "alpha", keys["alpha"])).Bind("MultFastLowPower", width, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]signal.Bit, 2*width)
	if _, err := inst.Eval(in); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inst.Eval(in); err == nil {
			t.Fatalf("eval %d after Close succeeded", i)
		}
	}

	entries, err := ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range entries {
		sum += e.Cents
	}
	m, _ := g.MeterFor("alpha")
	if m.FeeCents <= 0 {
		t.Fatal("tenant metered no fees")
	}
	if math.Abs(sum-m.FeeCents) > 1e-9 {
		t.Fatalf("ledger file %.9f != meter %.9f", sum, m.FeeCents)
	}
	if n := g.metrics.ledgerErrs.Load(); n != 0 {
		t.Fatalf("%d ledger append(s) failed", n)
	}
}

// TestDrainingRefusesAdmission: once a drain begins, admission returns
// a typed draining refusal and healthz flips to 503.
func TestDrainingRefusesAdmission(t *testing.T) {
	leakcheck.Check(t)
	g, _, _ := startGateway(t, Config{MaxSessions: 4}, TenantSpec{Name: "alpha"})
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	err := g.admit("alpha", &net.TCPAddr{})
	if got := ReasonOf(err); got != ReasonDraining {
		t.Fatalf("admit while draining: reason %q (err %v), want %q", got, err, ReasonDraining)
	}
	if !g.Draining() {
		t.Fatal("Draining() = false mid-drain")
	}
}

// TestRejectStormLogBounded: a reject storm must not amplify into a
// log storm — within one clock second the gateway emits at most
// logBurstPerSec diagnostic lines no matter how many rejections occur.
func TestRejectStormLogBounded(t *testing.T) {
	leakcheck.Check(t)
	var mu sync.Mutex
	lines := 0
	g, _, _ := startGateway(t, Config{
		MaxSessions: 1,
		Logf: func(string, ...any) {
			mu.Lock()
			lines++
			mu.Unlock()
		},
	}, TenantSpec{Name: "alpha"})
	g.now = func() time.Time { return time.Unix(1000, 0) } // freeze the log window

	g.mu.Lock()
	g.admitted = g.cfg.MaxSessions // saturate without real sessions
	g.mu.Unlock()
	for i := 0; i < 10000; i++ {
		if err := g.admit("alpha", &net.TCPAddr{}); err == nil {
			t.Fatal("admit succeeded at MaxSessions")
		}
	}
	g.mu.Lock()
	g.admitted = 0
	g.mu.Unlock()
	if got := g.metrics.rejectedCap.Load(); got != 10000 {
		t.Fatalf("rejection counter = %d, want 10000", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if lines > logBurstPerSec {
		t.Fatalf("10000 rejections emitted %d log lines, want <= %d", lines, logBurstPerSec)
	}
	if lines == 0 {
		t.Fatal("rejections emitted no log lines at all")
	}
}

// TestImplicitTenantMetered: clients authorized directly on the
// wrapped server (the legacy single-client path) still get a tenant
// record, caps, and metering.
func TestImplicitTenantMetered(t *testing.T) {
	leakcheck.Check(t)
	g, addr, _ := startGateway(t, Config{MaxSessions: 4, MaxConnsPerTenant: 1})
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	g.Server.Authorize("legacy", key)

	cli := dial(t, addr, "legacy", key)
	if _, err := evalDigest(iplib.NewIPClient(cli), 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rmi.Dial(addr, "legacy", key); ReasonOf(err) != ReasonTenantConns {
		t.Fatalf("implicit tenant not capped: %v", err)
	}
	m, ok := g.MeterFor("legacy")
	if !ok || m.Calls == 0 || m.FeeCents <= 0 {
		t.Fatalf("implicit tenant not metered: %+v (ok=%v)", m, ok)
	}
}
