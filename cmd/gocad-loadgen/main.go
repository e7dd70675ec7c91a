// Command gocad-loadgen storms a gocad gateway with simulated IP users
// and reports what the gateway did about it: sessions per second,
// admission/rejection counts by typed reason, and call latency
// percentiles (p50/p99/p999). Every admitted user runs the same
// deterministic multiplier workload and digests its outputs, so the
// report can assert the load test's core invariant — overload must
// never corrupt admitted work, only refuse new work loudly.
//
//	gocad-server -addr 127.0.0.1:7999 -keyfile key.hex &
//	gocad-loadgen -addr 127.0.0.1:7999 -keyfile key.hex -users 64 -calls 10
//
// With -selftest the load generator brings up an in-process provider
// behind a deliberately small gateway (MaxSessions 6, accept queue 4),
// storms it at 4x capacity, and exits non-zero unless the gateway's
// contract holds end to end:
//
//   - every admitted session completes with a bit-identical workload
//     fingerprint;
//   - every rejection is typed (a gateway Reason) and arrives within
//     the handshake deadline — no dial hangs;
//   - the /metrics counters reconcile exactly with the client-side
//     admission, rejection, and call counts;
//   - the billing ledger's per-tenant sums match both each tenant's
//     meter and the fees the clients saw.
//
// CI runs `gocad-loadgen -selftest` as the gateway smoke test.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/gateway/sidecar"
	"repro/internal/iplib"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7999", "gateway address")
		keyfile  = flag.String("keyfile", "gocad-key.hex", "hex session key file")
		client   = flag.String("client", "designer", "tenant (client) name to authenticate as")
		users    = flag.Int("users", 32, "simulated concurrent IP users")
		calls    = flag.Int("calls", 5, "Eval calls per admitted session")
		width    = flag.Int("width", 8, "multiplier operand width")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-call (and handshake) client deadline")
		metrics  = flag.String("metrics", "", "gateway metrics URL to scrape into the report (e.g. http://127.0.0.1:9090/metrics)")
		selftest = flag.Bool("selftest", false, "run the self-contained gateway acceptance storm and exit 0/1")
	)
	flag.Parse()
	if *selftest {
		os.Exit(runSelftest(*calls, *width))
	}

	raw, err := os.ReadFile(*keyfile)
	if err != nil {
		fatal(err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		fatal(fmt.Errorf("bad key file: %w", err))
	}
	user := func(i int) (string, security.Key) { return *client, security.Key(key) }
	results, elapsed := storm(*addr, *users, *calls, *width, *timeout, user)
	report(os.Stdout, results, elapsed)
	if *metrics != "" {
		body, err := scrape(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gocad-loadgen: metrics scrape: %v\n", err)
		} else {
			fmt.Printf("gateway-side: admissions=%.0f rejections=%.0f calls=%.0f sessions_active=%.0f\n",
				metricSum(body, "gocad_gateway_admissions_total"),
				metricSum(body, "gocad_gateway_rejections_total"),
				metricSum(body, "gocad_gateway_calls_total"),
				metricSum(body, "gocad_gateway_sessions_active"))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocad-loadgen:", err)
	os.Exit(1)
}

// userResult is one simulated user's outcome.
type userResult struct {
	tenant      string
	admitted    bool
	reason      gateway.Reason // typed rejection reason, if any
	err         error
	dialDur     time.Duration
	calls       int64
	failed      int64
	fees        float64
	fingerprint string
	rtts        []time.Duration
}

// storm dials users concurrent sessions. Every user's dial outcome is
// awaited before any admitted session starts (and finishes) its
// workload, so admitted sessions are all held open while the rest of
// the storm hits admission control — the worst case the gateway
// advertises it can take.
func storm(addr string, users, calls, width int, timeout time.Duration, user func(i int) (string, security.Key)) ([]userResult, time.Duration) {
	results := make([]userResult, users)
	var dialed, done sync.WaitGroup
	dialed.Add(users)
	done.Add(users)
	start := time.Now()
	for i := 0; i < users; i++ {
		go func(i int) {
			defer done.Done()
			tenant, key := user(i)
			results[i] = runUser(addr, tenant, key, calls, width, timeout, &dialed)
		}(i)
	}
	done.Wait()
	return results, time.Since(start)
}

// runUser dials one session and, if admitted, runs the deterministic
// workload. dialed is decremented as soon as the dial resolves either
// way; admitted users then hold their session until the whole storm
// has dialed.
func runUser(addr, tenant string, key security.Key, calls, width int, timeout time.Duration, dialed *sync.WaitGroup) userResult {
	r := userResult{tenant: tenant}
	t0 := time.Now()
	rpc, err := rmi.Dial(addr, tenant, key)
	r.dialDur = time.Since(t0)
	if err != nil {
		dialed.Done()
		r.err = err
		r.reason = gateway.ReasonOf(err)
		return r
	}
	r.admitted = true
	dialed.Done()
	dialed.Wait() // hold the slot until every user has hit admission
	defer rpc.Close()
	rpc.Timeout = timeout
	rpc.Retry.MaxAttempts = 1 // one wire request per call: reconcilable counts
	var mu sync.Mutex
	rpc.OnAttempt = func(method string, rtt time.Duration, err error) {
		mu.Lock()
		r.rtts = append(r.rtts, rtt)
		if err == nil {
			r.calls++
		} else {
			r.failed++
		}
		mu.Unlock()
	}
	r.fingerprint, r.fees, r.err = workload(iplib.NewIPClient(rpc), calls, width)
	return r
}

// workload is the deterministic per-session job: bind the multiplier,
// evaluate a fixed pattern sequence, and digest every output bit. Two
// sessions running it must produce identical fingerprints — the
// admitted-work-is-never-corrupted check.
func workload(ip *iplib.IPClient, calls, width int) (fingerprint string, fees float64, err error) {
	inst, err := ip.Bind("MultFastLowPower", width, nil)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	mask := uint64(1)<<width - 1
	for i := 0; i < calls; i++ {
		a := uint64(i*7+3) & mask
		b := uint64(i*5+11) & mask
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
			return "", 0, err
		}
		var v uint64
		for j, bit := range out {
			h.Write([]byte{byte(bit)})
			if on, known := bit.Bool(); known && on {
				v |= 1 << uint(j)
			}
		}
		if v != a*b {
			return "", 0, fmt.Errorf("eval %d*%d returned %d", a, b, v)
		}
	}
	fees, err = ip.Fees()
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), fees, nil
}

// report prints the human-readable storm summary.
func report(w io.Writer, results []userResult, elapsed time.Duration) {
	var admitted, rejected, untyped int
	var calls, failed int64
	var rtts []time.Duration
	reasons := map[gateway.Reason]int{}
	prints := map[string]int{}
	for _, r := range results {
		if r.admitted {
			admitted++
			calls += r.calls
			failed += r.failed
			rtts = append(rtts, r.rtts...)
			if r.fingerprint != "" {
				prints[r.fingerprint]++
			}
		} else {
			rejected++
			if r.reason == gateway.ReasonNone {
				untyped++
			} else {
				reasons[r.reason]++
			}
		}
	}
	rate := float64(admitted) / elapsed.Seconds()
	fmt.Fprintf(w, "gocad-loadgen: %d users -> %d admitted, %d rejected in %v (%.1f sessions/sec)\n",
		len(results), admitted, rejected, elapsed.Round(time.Millisecond), rate)
	if rejected > 0 {
		var keys []string
		for r := range reasons {
			keys = append(keys, string(r))
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  rejections:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, reasons[gateway.Reason(k)])
		}
		if untyped > 0 {
			fmt.Fprintf(w, " UNTYPED=%d", untyped)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  calls: %d ok, %d failed; rtt p50=%v p99=%v p999=%v\n",
		calls, failed, percentile(rtts, 0.50), percentile(rtts, 0.99), percentile(rtts, 0.999))
	switch len(prints) {
	case 0:
		fmt.Fprintln(w, "  fingerprints: none (no admitted session completed)")
	case 1:
		for p := range prints {
			fmt.Fprintf(w, "  fingerprint: %s (identical across all %d admitted sessions)\n", p[:16], admitted)
		}
	default:
		fmt.Fprintf(w, "  fingerprints: DIVERGED (%d distinct values)\n", len(prints))
	}
}

// percentile returns the q-th latency percentile (nearest-rank).
func percentile(rtts []time.Duration, q float64) time.Duration {
	if len(rtts) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), rtts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i].Round(time.Microsecond)
}

// scrape fetches a metrics endpoint body.
func scrape(url string) (string, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}

// metricSum sums every sample of one metric family in a Prometheus
// text body (all label sets).
func metricSum(body, name string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// metricValue returns one labeled sample's value, e.g.
// metricValue(body, `gocad_gateway_tenant_fee_cents_total{tenant="a"}`).
func metricValue(body, sample string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			fields := strings.Fields(line)
			v, _ := strconv.ParseFloat(fields[len(fields)-1], 64)
			return v
		}
	}
	return math.NaN()
}

// runSelftest is the self-contained acceptance storm: an in-process
// provider behind a small gateway, stormed at 4x MaxSessions.
func runSelftest(calls, width int) int {
	const (
		maxSessions = 6
		acceptQueue = 4
		tenantConns = 4
		userCount   = 4 * maxSessions
		handshake   = 2 * time.Second
	)
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "gocad-loadgen selftest: FAIL: "+format+"\n", args...)
		return 1
	}

	p := provider.New("loadgen-provider")
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp("", "gocad-loadgen")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	ledgerPath := filepath.Join(dir, "ledger.tsv")
	g, err := gateway.New(p.Server, gateway.Config{
		MaxSessions:       maxSessions,
		MaxConnsPerTenant: tenantConns,
		AcceptQueue:       acceptQueue,
		HandshakeTimeout:  handshake,
		LedgerPath:        ledgerPath,
	})
	if err != nil {
		fatal(err)
	}
	tenants := []string{"alpha", "beta", "gamma"}
	keys := map[string]security.Key{}
	for _, name := range tenants {
		key, err := security.NewKey()
		if err != nil {
			fatal(err)
		}
		keys[name] = key
		if err := g.AddTenant(gateway.TenantSpec{Name: name, Key: hex.EncodeToString(key)}); err != nil {
			fatal(err)
		}
	}
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	side, err := sidecar.Listen(g, "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer side.Close()
	metricsURL := "http://" + side.Addr() + "/metrics"

	user := func(i int) (string, security.Key) {
		name := tenants[i%len(tenants)]
		return name, keys[name]
	}
	results, elapsed := storm(addr, userCount, calls, width, 10*time.Second, user)
	report(os.Stdout, results, elapsed)

	// 1. Admitted work is never corrupted: one fingerprint, no errors.
	var admitted, rejected int
	var clientCalls int64
	prints := map[string]bool{}
	feesByTenant := map[string]float64{}
	for i, r := range results {
		if !r.admitted {
			rejected++
			if r.reason == gateway.ReasonNone {
				return fail("user %d rejection is untyped: %v", i, r.err)
			}
			if r.dialDur > handshake+5*time.Second {
				return fail("user %d rejection took %v (handshake deadline %v)", i, r.dialDur, handshake)
			}
			continue
		}
		admitted++
		clientCalls += r.calls + r.failed
		if r.err != nil {
			return fail("admitted user %d workload: %v", i, r.err)
		}
		prints[r.fingerprint] = true
		feesByTenant[r.tenant] += r.fees
	}
	if admitted == 0 || admitted > maxSessions {
		return fail("%d sessions admitted (MaxSessions %d)", admitted, maxSessions)
	}
	if len(prints) != 1 {
		return fail("admitted fingerprints diverged: %d distinct values", len(prints))
	}

	// 2. Metrics reconcile exactly with the client-side counts. Session
	// close is asynchronous, so poll the gauge down to zero first.
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err = scrape(metricsURL)
		if err != nil {
			return fail("metrics scrape: %v", err)
		}
		if metricSum(body, "gocad_gateway_sessions_active") == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fail("sessions_active never drained to 0")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricSum(body, "gocad_gateway_admissions_total"); got != float64(admitted) {
		return fail("admissions_total=%g, clients saw %d", got, admitted)
	}
	if got := metricSum(body, "gocad_gateway_rejections_total"); got != float64(rejected) {
		return fail("rejections_total=%g, clients saw %d", got, rejected)
	}
	if got := metricSum(body, "gocad_gateway_calls_total"); got != float64(clientCalls) {
		return fail("calls_total=%g, clients sent %d", got, clientCalls)
	}

	// 3. The billing trail agrees everywhere: persisted ledger sums ==
	// in-memory meters == exported metrics == fees the clients saw.
	entries, err := gateway.ReadLedger(ledgerPath)
	if err != nil {
		return fail("read ledger: %v", err)
	}
	ledgerSums := map[string]float64{}
	for _, e := range entries {
		ledgerSums[e.Tenant] += e.Cents
	}
	for _, name := range tenants {
		meter, ok := g.MeterFor(name)
		if !ok {
			return fail("tenant %q has no meter", name)
		}
		sum := ledgerSums[name]
		if math.Abs(sum-meter.FeeCents) > 1e-6 {
			return fail("tenant %q: ledger %.6f¢ != meter %.6f¢", name, sum, meter.FeeCents)
		}
		if math.Abs(sum-feesByTenant[name]) > 1e-6 {
			return fail("tenant %q: ledger %.6f¢ != client-visible fees %.6f¢", name, sum, feesByTenant[name])
		}
		exported := metricValue(body, fmt.Sprintf("gocad_gateway_tenant_fee_cents_total{tenant=%q}", name))
		if math.Abs(sum-exported) > 1e-6 {
			return fail("tenant %q: ledger %.6f¢ != exported %.6f¢", name, sum, exported)
		}
	}

	if err := g.Drain(5 * time.Second); err != nil {
		return fail("drain: %v", err)
	}
	fmt.Printf("selftest PASS: %d admitted / %d rejected, %d ledger entries reconciled across %d tenants\n",
		admitted, rejected, len(entries), len(tenants))
	return 0
}
