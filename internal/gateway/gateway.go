// Package gateway is the multi-tenant front end of an IP provider: the
// trust and robustness boundary between the open network and the
// provider's rmi.Server. The paper's economic model has providers
// selling estimation services per call, which implies a front end that
// survives thousands of concurrent IP users, hostile traffic, and
// overload without degrading the sessions it has admitted. The gateway
// layers four mechanisms over the transport:
//
//   - Admission control: a hard MaxSessions cap, per-tenant connection
//     limits, and a bounded accept queue. Every refusal is a loud,
//     typed wire error (see Reason) delivered within the handshake
//     deadline — never a silent hang, never an unexplained reset while
//     capacity remains to say why.
//   - Per-tenant identity and quotas: tenants are the HMAC session
//     identities (security.Key → TenantSpec), with token-bucket rate
//     limits on calls/sec and bytes/sec (throttling, so admitted work
//     stays correct), usage-fee metering aggregated from sess.Charge
//     into an append-only billing ledger, and fee ceilings enforced as
//     typed over-quota call errors that never poison other tenants.
//   - Slow-client protection: handshake, per-frame read (idle), and
//     per-frame write deadlines on every connection, composing with
//     the server's graceful Drain.
//   - Observability: WriteMetrics renders Prometheus text; package
//     gateway/sidecar serves it with /healthz and /debug/pprof over
//     HTTP, so only programs that serve those endpoints link net/http.
package gateway

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/rmi"
)

// The gateway's default limits. They are deliberately conservative
// production values; tests and benchmarks set explicit ones.
const (
	DefaultMaxSessions       = 1024
	DefaultMaxConnsPerTenant = 64
	DefaultAcceptQueue       = 128
	DefaultHandshakeTimeout  = 5 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultWriteTimeout      = 30 * time.Second
)

// Config carries the gateway's knobs. Zero values select the defaults
// above; negative durations disable the corresponding deadline
// (trusted in-process transports only).
type Config struct {
	// MaxSessions caps concurrently admitted sessions across all
	// tenants.
	MaxSessions int
	// MaxConnsPerTenant caps one tenant's concurrent sessions unless
	// its TenantSpec.MaxConns overrides.
	MaxConnsPerTenant int
	// AcceptQueue bounds how many connections beyond MaxSessions may be
	// in flight (accepted but not yet admitted); overflow is fast-failed
	// with a typed queue-full rejection.
	AcceptQueue int
	// HandshakeTimeout bounds a connection's pre-session phase.
	HandshakeTimeout time.Duration
	// IdleTimeout reaps connections that sit silent between requests.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response frame write (a client that
	// stops reading is cut loose, not buffered forever).
	WriteTimeout time.Duration
	// LedgerPath persists the billing ledger; empty keeps it in memory.
	LedgerPath string
	// Logf, when non-nil, receives (sampled) diagnostics.
	Logf func(format string, args ...any)
}

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxConnsPerTenant <= 0 {
		c.MaxConnsPerTenant = DefaultMaxConnsPerTenant
	}
	if c.AcceptQueue <= 0 {
		c.AcceptQueue = DefaultAcceptQueue
	}
	c.HandshakeTimeout = normalizeTimeout(c.HandshakeTimeout, DefaultHandshakeTimeout)
	c.IdleTimeout = normalizeTimeout(c.IdleTimeout, DefaultIdleTimeout)
	c.WriteTimeout = normalizeTimeout(c.WriteTimeout, DefaultWriteTimeout)
	return c
}

// normalizeTimeout maps zero to a default and negative to disabled.
func normalizeTimeout(d, def time.Duration) time.Duration {
	switch {
	case d > 0:
		return d
	case d < 0:
		return 0
	default:
		return def
	}
}

// Gateway wraps one rmi.Server with multi-tenant admission control,
// quotas, metering, and slow-client protection. Construct with New,
// register tenants with AddTenant, then Serve or Listen. The gateway
// owns the wrapped server's lifecycle hooks and deadline knobs.
type Gateway struct {
	// Server is the wrapped RPC endpoint.
	Server *rmi.Server

	cfg     Config
	metrics metrics
	ledger  *Ledger

	// now and sleep are the clock seams (tests inject a fake clock for
	// deterministic rate-limit behavior).
	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	tenants  map[string]*tenantState
	admitted int  // reserved + open sessions (the MaxSessions gauge)
	draining bool // set by Drain and Close; admission stops for good
	ln       net.Listener

	conns     chan struct{} // occupancy tokens: MaxSessions+AcceptQueue
	rejecting chan struct{} // bounds concurrent fast-reject writers

	logmu      sync.Mutex
	logWindow  int64
	logEmitted int
}

// New wraps srv in a gateway. The gateway takes ownership of the
// server's Hooks, HandshakeTimeout, IdleTimeout, and WriteTimeout.
func New(srv *rmi.Server, cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ledger, err := OpenLedger(cfg.LedgerPath)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		Server:  srv,
		cfg:     cfg,
		ledger:  ledger,
		now:     time.Now,
		sleep:   time.Sleep,
		tenants: make(map[string]*tenantState),
		conns:   make(chan struct{}, cfg.MaxSessions+cfg.AcceptQueue),
		// The fast-reject lane costs one goroutine writing one frame per
		// connection, so it is sized well past the serving capacity: a
		// storm several times MaxSessions still gets typed rejections,
		// and only a flood beyond that hits the raw-close backstop.
		rejecting: make(chan struct{}, 4*(cfg.MaxSessions+cfg.AcceptQueue)),
	}
	srv.HandshakeTimeout = cfg.HandshakeTimeout
	if srv.HandshakeTimeout == 0 {
		srv.HandshakeTimeout = -1 // explicit opt-out propagates
	}
	srv.IdleTimeout = cfg.IdleTimeout
	srv.WriteTimeout = cfg.WriteTimeout
	srv.Hooks = &rmi.ServerHooks{
		Admit:        g.admit,
		SessionOpen:  g.sessionOpen,
		SessionClose: g.sessionClose,
		BeforeCall:   g.beforeCall,
		AfterCall:    g.afterCall,
	}
	return g, nil
}

// AddTenant registers a tenant: its key is authorized on the wrapped
// server and its limits armed.
func (g *Gateway) AddTenant(spec TenantSpec) error {
	key, err := spec.SessionKey()
	if err != nil {
		return err
	}
	g.mu.Lock()
	if _, dup := g.tenants[spec.Name]; dup {
		g.mu.Unlock()
		return fmt.Errorf("gateway: duplicate tenant %q", spec.Name)
	}
	g.tenants[spec.Name] = newTenantState(spec, g.cfg.MaxConnsPerTenant)
	g.mu.Unlock()
	g.Server.Authorize(spec.Name, key)
	return nil
}

// tenant returns the live state for a client identity, creating a
// default record for clients authorized directly on the server (the
// legacy single-client path) so they are metered and capped too.
func (g *Gateway) tenant(client string) *tenantState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tenantLocked(client)
}

func (g *Gateway) tenantLocked(client string) *tenantState {
	ts, ok := g.tenants[client]
	if !ok {
		ts = newTenantState(TenantSpec{Name: client}, g.cfg.MaxConnsPerTenant)
		g.tenants[client] = ts
	}
	return ts
}

// Meters snapshots every tenant's usage accounting.
func (g *Gateway) Meters() []Meter {
	g.mu.Lock()
	states := make([]*tenantState, 0, len(g.tenants))
	for _, ts := range g.tenants {
		states = append(states, ts)
	}
	g.mu.Unlock()
	out := make([]Meter, 0, len(states))
	for _, ts := range states {
		out = append(out, ts.meter())
	}
	return out
}

// MeterFor snapshots one tenant's usage accounting.
func (g *Gateway) MeterFor(tenant string) (Meter, bool) {
	g.mu.Lock()
	ts, ok := g.tenants[tenant]
	g.mu.Unlock()
	if !ok {
		return Meter{}, false
	}
	return ts.meter(), true
}

// Ledger exposes the billing ledger (reconciliation, tests).
func (g *Gateway) Ledger() *Ledger { return g.ledger }

// occupancy returns the admitted-session gauge and the accept-queue
// depth (live connections beyond admitted sessions).
func (g *Gateway) occupancy() (active, queued int) {
	g.mu.Lock()
	active = g.admitted
	g.mu.Unlock()
	if q := len(g.conns) - active; q > 0 {
		queued = q
	}
	return active, queued
}

// admit is the rmi Admit hook: it reserves an admission slot or
// returns a typed refusal. Lock order is g.mu then ts.mu, matched by
// sessionClose.
func (g *Gateway) admit(client string, remote net.Addr) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.metrics.rejectedDrn.Add(1)
		return refusal(ReasonDraining, "provider draining, not admitting sessions")
	}
	if g.admitted >= g.cfg.MaxSessions {
		g.mu.Unlock()
		g.metrics.rejectedCap.Add(1)
		g.Logf("gateway: rejected %s from %v: at MaxSessions=%d", client, remote, g.cfg.MaxSessions)
		return refusal(ReasonOverCapacity, "session limit %d reached, try again later", g.cfg.MaxSessions)
	}
	ts := g.tenantLocked(client)
	ts.mu.Lock()
	if ts.conns >= ts.maxConns {
		ts.rejects++
		ts.mu.Unlock()
		g.mu.Unlock()
		g.metrics.rejectedTen.Add(1)
		g.Logf("gateway: rejected %s from %v: tenant at %d conns", client, remote, ts.maxConns)
		return refusal(ReasonTenantConns, "tenant %q connection limit %d reached", client, ts.maxConns)
	}
	ts.conns++
	ts.sessions++
	ts.mu.Unlock()
	g.admitted++
	g.mu.Unlock()
	g.metrics.admitted.Add(1)
	return nil
}

// sessionOpen arms per-session fee tracking.
func (g *Gateway) sessionOpen(sess *rmi.Session) {
	ts := g.tenant(sess.Client)
	ts.mu.Lock()
	ts.lastFees[sess.ID] = 0
	ts.mu.Unlock()
}

// sessionClose settles the session's final fees into the ledger and
// releases its admission slot.
func (g *Gateway) sessionClose(sess *rmi.Session) {
	ts := g.tenant(sess.Client)
	g.settleFees(ts, sess)
	ts.mu.Lock()
	ts.conns--
	delete(ts.lastFees, sess.ID)
	ts.mu.Unlock()
	g.mu.Lock()
	g.admitted--
	g.mu.Unlock()
}

// settleFees samples the session's accumulated fees and appends the
// delta since the last sample to the tenant meter and the billing
// ledger — the meter and the ledger therefore always agree.
func (g *Gateway) settleFees(ts *tenantState, sess *rmi.Session) {
	fees := sess.Fees()
	ts.mu.Lock()
	last, tracked := ts.lastFees[sess.ID]
	delta := fees - last
	if !tracked || delta <= 0 {
		ts.mu.Unlock()
		return
	}
	ts.feeCents += delta
	ts.lastFees[sess.ID] = fees
	ts.mu.Unlock()
	if err := g.ledger.Append(g.now(), ts.spec.Name, sess.ID, delta); err != nil {
		g.metrics.ledgerErrs.Add(1)
		g.Logf("gateway: %v", err)
	}
}

// beforeCall enforces the tenant's fee ceiling (typed over-quota
// refusal) and rate limits (throttling — the call waits for its
// tokens, it does not fail).
func (g *Gateway) beforeCall(sess *rmi.Session, method string, payloadBytes int) error {
	ts := g.tenant(sess.Client)
	if ceiling := ts.spec.FeeCeilingCents; ceiling > 0 {
		ts.mu.Lock()
		over := ts.feeCents >= ceiling
		if over {
			ts.over++
		}
		ts.mu.Unlock()
		if over {
			g.metrics.overQuota.Add(1)
			return refusal(ReasonOverQuota, "tenant %q reached its fee ceiling (%.2f cents)",
				ts.spec.Name, ceiling)
		}
	}
	if ts.callBucket != nil || ts.byteBucket != nil {
		t0 := g.now()
		ts.callBucket.wait(1, g.now, g.sleep)
		ts.byteBucket.wait(float64(payloadBytes), g.now, g.sleep)
		if d := g.now().Sub(t0); d > 0 {
			ts.mu.Lock()
			ts.throttle += d
			ts.mu.Unlock()
		}
	}
	return nil
}

// afterCall meters one completed dispatch and settles fee deltas.
func (g *Gateway) afterCall(sess *rmi.Session, method string, payloadBytes int, d time.Duration, failed bool) {
	g.metrics.calls.Add(1)
	if failed {
		g.metrics.callsFailed.Add(1)
	}
	g.metrics.bytesIn.Add(int64(payloadBytes))
	g.metrics.latency.observe(d)
	ts := g.tenant(sess.Client)
	ts.mu.Lock()
	ts.calls++
	if failed {
		ts.failed++
	}
	ts.bytesIn += int64(payloadBytes)
	ts.mu.Unlock()
	g.settleFees(ts, sess)
}

// Serve accepts connections until the listener closes, bounding total
// in-flight connections at MaxSessions+AcceptQueue. Overflow is
// fast-failed: the dialer receives a typed queue-full rejection within
// the handshake timeout. If even the rejection lane
// is saturated, the connection is closed immediately — the one thing
// the gateway never does is hang a client silently.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		ln.Close()
		return errors.New("gateway: closed")
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			stopped := g.draining
			g.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		select {
		case g.conns <- struct{}{}:
			go func(c net.Conn) {
				defer func() { <-g.conns }()
				g.Server.ServeConn(c)
			}(conn)
		default:
			g.metrics.rejectedFull.Add(1)
			g.Logf("gateway: accept queue full, fast-failing %v", conn.RemoteAddr())
			select {
			case g.rejecting <- struct{}{}:
				go func(c net.Conn) {
					defer func() { <-g.rejecting }()
					rmi.RespondReject(c, g.cfg.HandshakeTimeout,
						refusal(ReasonQueueFull, "accept queue full (limit %d)", cap(g.conns)).Error())
				}(conn)
			default:
				conn.Close()
			}
		}
	}
}

// Listen starts the gateway on a TCP address; Serve runs on a
// background goroutine.
func (g *Gateway) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := g.Serve(ln); err != nil {
			g.Logf("gateway: serve: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Drain shuts the gateway down gracefully: the listener closes and new
// admissions are refused with a typed draining rejection, in-flight
// requests run to completion under the wrapped server's Drain, and
// final fee deltas settle into the ledger as sessions close. The
// wrapped server's Drain returns only once every session it cut has run
// its SessionClose hook, or reports the ones that have not, so the
// ledger closes after the last fee it can settle. A metrics sidecar
// (package gateway/sidecar) keeps serving, /healthz reading 503, until
// its owner closes it after Drain returns.
func (g *Gateway) Drain(timeout time.Duration) error {
	g.mu.Lock()
	g.draining = true
	ln := g.ln
	g.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	return errors.Join(g.Server.Drain(timeout), g.ledger.Close())
}

// Close stops the gateway at once: it is Drain with a zero timeout.
// Every live session is cut, busy or not, no session serves another
// call, and the cut sessions' fees settle before the ledger closes, so
// the ledger file still sums to the meters.
func (g *Gateway) Close() error {
	return g.Drain(0)
}

// Draining reports whether Drain or Close has begun.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Logf logs through Config.Logf at most logBurstPerSec lines per
// second — a reject storm must not turn the gateway's own log into the
// bottleneck (the wrapped rmi.Server samples its log the same way).
// Companions such as the metrics sidecar log through it too.
const logBurstPerSec = 20

func (g *Gateway) Logf(format string, args ...any) {
	if g.cfg.Logf == nil {
		return
	}
	sec := g.now().Unix()
	g.logmu.Lock()
	if sec != g.logWindow {
		g.logWindow = sec
		g.logEmitted = 0
	}
	g.logEmitted++
	ok := g.logEmitted <= logBurstPerSec
	g.logmu.Unlock()
	if ok {
		g.cfg.Logf(format, args...)
	}
}
