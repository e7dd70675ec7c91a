package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/iplib"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

const (
	gwSizes = "MULT width=16, per session 10 Eval + 1 PowerBatch of 5 + Fees; phase A open loop 400/s, phase B closed loop; 2 clients"
	// gwRate is phase A's open-loop session rate; at most gwClients
	// sessions are in flight, one per client (nproc on the reference
	// machine).
	gwRate     = 400
	gwClients  = 2
	gwEvals    = 10
	gwPatterns = 5
	gwWidth    = 16
	// gwCallTimeout bounds every call, so a wedged gateway fails the run
	// instead of hanging it.
	gwCallTimeout = 10 * time.Second
)

type gwTenant struct {
	name string
	key  security.Key
}

// gwWorkload drives tenant sessions through a gateway over loopback TCP.
type gwWorkload struct {
	g       *gateway.Gateway
	dir     string
	ledger  string
	addr    string
	tenants [gwClients]gwTenant
	ops     [gwEvals][2]uint64 // multiplier operands per Eval
	inputs  [gwEvals][]signal.Bit
	pats    [][]signal.Bit // the PowerBatch patterns

	coldDigest string

	mu       sync.Mutex
	feesSeen [gwClients]float64 // fees the clients were billed, per tenant
	sessions int

	srv *serverTrace // traced runs only
}

// operandBits lays out a·b as the multiplier's input pattern.
func operandBits(a, b uint64) []signal.Bit {
	in := make([]signal.Bit, 2*gwWidth)
	for j := 0; j < gwWidth; j++ {
		if a>>j&1 == 1 {
			in[j] = signal.B1
		}
		if b>>j&1 == 1 {
			in[gwWidth+j] = signal.B1
		}
	}
	return in
}

func prepareGateway(seed int64, tmp string, traced bool) (workload, error) {
	p := provider.New("bench-provider")
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "gw-")
	if err != nil {
		return nil, err
	}
	ledger := filepath.Join(dir, "ledger.tsv")
	g, err := gateway.New(p.Server, gateway.Config{LedgerPath: ledger})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	w := &gwWorkload{g: g, dir: dir, ledger: ledger}
	if traced {
		// Re-wrap the gateway's own hooks before the listener serves.
		w.srv = &serverTrace{calls: make(map[string][]gwCall), pending: make(map[string]time.Duration)}
		p.Server.Hooks = w.srv.wrap(p.Server.Hooks)
	}
	if err := w.start(seed); err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

// start registers the tenants, generates the operands, listens and runs
// the cold session.
func (w *gwWorkload) start(seed int64) error {
	for i := range w.tenants {
		key, err := security.NewKey()
		if err != nil {
			return err
		}
		w.tenants[i] = gwTenant{fmt.Sprintf("tenant%d", i), key}
		if err := w.g.AddTenant(gateway.TenantSpec{Name: w.tenants[i].name, Key: hex.EncodeToString(key)}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<gwWidth - 1
	for i := range w.ops {
		a, b := rng.Uint64()&mask, rng.Uint64()&mask
		w.ops[i] = [2]uint64{a, b}
		w.inputs[i] = operandBits(a, b)
	}
	for i := 0; i < gwPatterns; i++ {
		w.pats = append(w.pats, operandBits(rng.Uint64()&mask, rng.Uint64()&mask))
	}
	addr, err := w.g.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = addr
	digest, fees, err := w.session(0, nil)
	if err != nil {
		return fmt.Errorf("cold session: %w", err)
	}
	w.account(0, fees)
	w.coldDigest = digest
	return nil
}

func (w *gwWorkload) account(client int, fees float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.feesSeen[client] += fees
	w.sessions++
}

func (w *gwWorkload) fingerprint() string { return w.coldDigest }

func (w *gwWorkload) checkCold(seed int64) error {
	return checkGolden("gw-sessions", seed, w.coldDigest)
}

// close drains the gateway, which closes the ledger, and removes the
// scratch directory.
func (w *gwWorkload) close() error {
	return errors.Join(w.g.Drain(5*time.Second), os.RemoveAll(w.dir))
}

// session runs one tenant session: dial, bind, the Evals (each checked
// to equal a·b), one PowerBatch, Fees and Close. It returns a digest of
// every output and the fees billed.
func (w *gwWorkload) session(client int, ct *clientTrace) (string, float64, error) {
	t := w.tenants[client]
	t0 := time.Now()
	rpc, err := rmi.Dial(w.addr, t.name, t.key)
	if err != nil {
		return "", 0, fmt.Errorf("dial: %w", err)
	}
	rpc.Timeout = gwCallTimeout
	if ct != nil {
		ct.dialStart, ct.dialEnd = t0, time.Now()
		ct.session = rpc.Session()
		rpc.Meter = &netsim.Meter{}
		rpc.OnAttempt = ct.attempt
	}
	digest, fees, err := w.calls(iplib.NewIPClient(rpc), ct)
	if cerr := rpc.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if ct != nil {
		ct.end = time.Now()
		ct.bytes = rpc.Meter.Bytes()
	}
	return digest, fees, err
}

func (w *gwWorkload) calls(ip *iplib.IPClient, ct *clientTrace) (string, float64, error) {
	inst, err := ip.Bind("MultFastLowPower", gwWidth, nil)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	for i, in := range w.inputs {
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
		if a, b := w.ops[i][0], w.ops[i][1]; v != a*b {
			return "", 0, fmt.Errorf("eval %d*%d returned %d", a, b, v)
		}
	}
	vals, err := inst.PowerBatch(w.pats, false)
	if err != nil {
		return "", 0, err
	}
	if len(vals) != gwPatterns {
		return "", 0, fmt.Errorf("power batch of %d patterns returned %d values", gwPatterns, len(vals))
	}
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	fees, err := ip.Fees()
	if err != nil {
		return "", 0, err
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(fees))
	h.Write(buf[:])
	if ct != nil {
		ct.values = len(vals)
	}
	return hex.EncodeToString(h.Sum(nil)), fees, nil
}

// op runs one checked session: its outputs must equal the cold session's.
func (w *gwWorkload) op(client int, ct *clientTrace) error {
	digest, fees, err := w.session(client, ct)
	if err != nil {
		return err
	}
	w.account(client, fees)
	if digest != w.coldDigest {
		return fmt.Errorf("session digest %s differs from the cold session's %s", digest, w.coldDigest)
	}
	return nil
}

// gwOpTrace is one traced phase A session.
type gwOpTrace struct {
	op  int
	due time.Time
	ct  *clientTrace
}

func (w *gwWorkload) run(lim limits, tr *tracer) *measurement {
	traced := tr != nil
	m := newMeasurement()
	phase := limits{d: lim.d / 2, maxOps: lim.maxOps}
	if w.srv != nil {
		w.srv.recording.Store(true)
	}
	late, traces := w.openLoop(phase, traced, m)
	if w.srv != nil {
		w.srv.recording.Store(false)
	}
	before := readUsage()
	n, elapsed := w.closedLoop(phase, m)
	after := readUsage()
	m.completed, m.loopTime = n, elapsed
	m.notePeakRSS()
	if err := w.reconcile(); err != nil {
		m.fail(err)
	}
	if traced {
		acc := usageAcc{}
		acc.add(before, after, n)
		acc.report(m.layers, before, after)
		m.layers["gen.late_us_p99"] = percentile(micros(late), 0.99)
		m.setOverhead()
		w.report(m, traces, tr)
	}
	return m
}

// openLoop is phase A: sessions are due every 1/gwRate seconds whether
// or not earlier ones finished, and each is timed from its due time.
// Untraced runs time each client's yardstick right after each session,
// in the gap before its next one is due; traced runs trace every other
// session.
func (w *gwWorkload) openLoop(lim limits, traced bool, m *measurement) ([]time.Duration, []gwOpTrace) {
	period := time.Second / gwRate
	start := time.Now()
	var (
		next   atomic.Int64
		mu     sync.Mutex
		late   []time.Duration
		traces []gwOpTrace
		wg     sync.WaitGroup
	)
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			y := newYardstick()
			for {
				j := int(next.Add(1) - 1)
				due := start.Add(time.Duration(j) * period)
				if (lim.maxOps > 0 && j >= lim.maxOps) || due.Sub(start) >= lim.d {
					return
				}
				netsim.Wait(time.Until(due))
				began := time.Now()
				var ct *clientTrace
				if traced && j%2 == 0 {
					ct = &clientTrace{}
				}
				err := w.op(client, ct)
				d := time.Since(due)
				var yd time.Duration
				if !traced {
					yd = y.sample()
				}
				m.record(d, yd, err, ct != nil)
				mu.Lock()
				late = append(late, began.Sub(due))
				if ct != nil && err == nil {
					traces = append(traces, gwOpTrace{j, due, ct})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return late, traces
}

// closedLoop is phase B: each client starts its next session as soon as
// the last one ends. It returns the completed sessions and the phase's
// length.
func (w *gwWorkload) closedLoop(lim limits, m *measurement) (int, time.Duration) {
	start := time.Now()
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for !lim.done(int(next.Add(1)-1), start) {
				err := w.op(client, nil)
				m.count(err)
				if err == nil {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(done.Load()), time.Since(start)
}

// reconcile checks the persisted billing ledger against the fees the
// clients were billed, per tenant.
func (w *gwWorkload) reconcile() error {
	entries, err := gateway.ReadLedger(w.ledger)
	if err != nil {
		return err
	}
	sums := make(map[string]float64)
	for _, e := range entries {
		sums[e.Tenant] += e.Cents
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range w.tenants {
		got, want := sums[t.name], w.feesSeen[i]
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("tenant %s: ledger sums to %.6f cents, clients were billed %.6f", t.name, got, want)
		}
	}
	return nil
}

// report sets the per-layer metrics from the traced sessions and the
// server-side hook records, and records the sessions' spans.
func (w *gwWorkload) report(m *measurement, traces []gwOpTrace, tr *tracer) {
	s := w.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	var rtt, wire, dial []time.Duration
	var calls, bytes, dispatch, batches, perBatch []float64
	failed := 0
	for _, t := range traces {
		ct := t.ct
		dial = append(dial, ct.dialEnd.Sub(ct.dialStart))
		root := tr.add("session", t.op, -1, t.due, ct.end)
		tr.add("gen.late", t.op, root, t.due, ct.dialStart)
		tr.add("rmi.dial", t.op, root, ct.dialStart, ct.dialEnd)
		byMethod := make(map[string][]gwCall)
		var disp time.Duration
		nb := 0
		for _, c := range s.calls[ct.session] {
			byMethod[c.method] = append(byMethod[c.method], c)
			disp += c.end.Sub(c.start) - c.before
			if c.method == iplib.MethodPowerBatch {
				nb++
			}
		}
		next := make(map[string]int)
		for _, a := range ct.attempts {
			if a.failed {
				failed++
			}
			callSpan := tr.add("rmi."+a.method, t.op, root, a.end.Add(-a.rtt), a.end)
			k := next[a.method]
			next[a.method]++
			if k >= len(byMethod[a.method]) {
				continue
			}
			// The k-th attempt of a method is the session's k-th dispatch
			// of it: a session's calls are synchronous.
			c := byMethod[a.method][k]
			tr.add("gateway.before_call", t.op, callSpan, c.start, c.start.Add(c.before))
			tr.add("provider."+a.method, t.op, callSpan, c.start.Add(c.before), c.end)
			tr.add("gateway.after_call", t.op, callSpan, c.end, c.end.Add(c.after))
			if a.method == iplib.MethodEval {
				rtt = append(rtt, a.rtt)
				wire = append(wire, a.rtt-c.end.Sub(c.start)-c.after)
			}
		}
		calls = append(calls, float64(len(ct.attempts)))
		bytes = append(bytes, float64(ct.bytes))
		dispatch = append(dispatch, ms(disp))
		batches = append(batches, float64(nb))
		if nb > 0 {
			perBatch = append(perBatch, float64(ct.values)/float64(nb))
		}
	}
	var evals, powers, binds []time.Duration
	for _, cs := range s.calls {
		for _, c := range cs {
			d := c.end.Sub(c.start) - c.before
			switch c.method {
			case iplib.MethodEval:
				evals = append(evals, d)
			case iplib.MethodPowerBatch:
				powers = append(powers, d)
			case iplib.MethodBind:
				binds = append(binds, d)
			}
		}
	}
	l := m.layers
	l["rmi.call_us_p50"] = percentile(micros(rtt), 0.5)
	l["rmi.call_us_p99"] = percentile(micros(rtt), 0.99)
	l["rmi.wire_us_p50"] = percentile(micros(wire), 0.5)
	l["rmi.wire_us_p99"] = percentile(micros(wire), 0.99)
	l["rmi.handshake_us_p50"] = median(micros(dial))
	l["rmi.failed_attempts"] = float64(failed)
	l["rmi.calls"] = median(calls)
	l["rmi.bytes"] = median(bytes)
	l["estim.batches"] = median(batches)
	l["estim.patterns_per_batch"] = median(perBatch)
	l["provider.dispatch_ms"] = median(dispatch)
	l["provider.eval_us_p50"] = median(micros(evals))
	l["provider.power_batch_us_p50"] = median(micros(powers))
	l["provider.bind_us_p50"] = median(micros(binds))
	l["gateway.admit_us_p50"] = median(micros(s.admit))
	l["gateway.before_call_us_p50"] = median(micros(s.before))
	l["gateway.after_call_us_p50"] = median(micros(s.after))
	l["gateway.session_close_us_p50"] = median(micros(s.closes))
	w.mu.Lock()
	if w.sessions > 0 {
		l["gateway.ledger_appends"] = float64(w.g.Ledger().Entries()) / float64(w.sessions)
	}
	w.mu.Unlock()
	m.notes = append(m.notes, fmt.Sprintf(
		"# layer tree, Eval call median: rmi.call %.1f us = provider dispatch with gateway hooks + rmi.wire %.1f us; %d traced sessions",
		l["rmi.call_us_p50"], l["rmi.wire_us_p50"], len(traces)))
}

// clientTrace is one traced session seen from the client.
type clientTrace struct {
	dialStart, dialEnd, end time.Time
	session                 string
	attempts                []attempt
	bytes                   int64
	values                  int
}

type attempt struct {
	method string
	rtt    time.Duration
	end    time.Time
	failed bool
}

// attempt is an rmi.Client.OnAttempt hook; a session's calls are
// synchronous, so it runs on the session's goroutine.
func (c *clientTrace) attempt(method string, rtt time.Duration, err error) {
	c.attempts = append(c.attempts, attempt{method, rtt, time.Now(), err != nil})
}

// serverTrace times the gateway's own server hooks and records every
// dispatched call by session while recording is on.
type serverTrace struct {
	recording atomic.Bool

	mu                           sync.Mutex
	admit, before, after, closes []time.Duration
	calls                        map[string][]gwCall      // by session ID, in dispatch order
	pending                      map[string]time.Duration // a BeforeCall's time awaiting its AfterCall
}

// gwCall is one dispatched call: start and end bound the dispatch as the
// rmi server measures it (BeforeCall plus handler); before and after
// are the gateway's hook times on either side.
type gwCall struct {
	method        string
	start, end    time.Time
	before, after time.Duration
}

func (s *serverTrace) observe(dst *[]time.Duration, d time.Duration) {
	if !s.recording.Load() {
		return
	}
	s.mu.Lock()
	*dst = append(*dst, d)
	s.mu.Unlock()
}

func (s *serverTrace) wrap(h *rmi.ServerHooks) *rmi.ServerHooks {
	return &rmi.ServerHooks{
		Admit: func(client string, remote net.Addr) error {
			t0 := time.Now()
			err := h.Admit(client, remote)
			s.observe(&s.admit, time.Since(t0))
			return err
		},
		SessionOpen: h.SessionOpen,
		SessionClose: func(sess *rmi.Session) {
			t0 := time.Now()
			h.SessionClose(sess)
			s.observe(&s.closes, time.Since(t0))
		},
		BeforeCall: func(sess *rmi.Session, method string, n int) error {
			t0 := time.Now()
			err := h.BeforeCall(sess, method, n)
			d := time.Since(t0)
			if s.recording.Load() {
				s.mu.Lock()
				s.before = append(s.before, d)
				s.pending[sess.ID] = d
				s.mu.Unlock()
			}
			return err
		},
		AfterCall: func(sess *rmi.Session, method string, n int, d time.Duration, failed bool) {
			t0 := time.Now()
			h.AfterCall(sess, method, n, d, failed)
			a := time.Since(t0)
			if s.recording.Load() {
				s.mu.Lock()
				b := s.pending[sess.ID]
				delete(s.pending, sess.ID)
				s.after = append(s.after, a)
				s.calls[sess.ID] = append(s.calls[sess.ID], gwCall{method, t0.Add(-d), t0, b, a})
				s.mu.Unlock()
			}
		},
	}
}
