package rmi

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/security"
)

// Handler serves one remote method: it decodes its arguments from the
// payload and returns a response envelope (which must implement PortData
// so the provider-side marshalling policy can vet it).
type Handler func(sess *Session, payload []byte) (any, error)

// DefaultHandshakeTimeout bounds the pre-session phase of a connection
// — hello frame, welcome write — when no explicit HandshakeTimeout is
// configured. A client that connects and never speaks must not park a
// server goroutine forever.
const DefaultHandshakeTimeout = 15 * time.Second

// DefaultLogBurst is how many diagnostic lines per second logf emits
// before sampling kicks in (see Server.LogBurst).
const DefaultLogBurst = 50

// sessionWorkers bounds concurrent handler execution per session: a
// pipelined client's stateless calls (detection tables, static metrics,
// eval) overlap instead of re-serializing at the provider, and one
// session cannot monopolize the provider host.
const sessionWorkers = 4

// ServerHooks lets a front end (internal/gateway) observe and vet the
// server's connection lifecycle without owning the protocol. All fields
// are optional; install the struct before Serve — it is read without
// synchronization once connections are live.
//
// Lifecycle guarantees: when Admit returns nil, the session opens and
// SessionOpen fires exactly once; SessionClose then fires exactly once
// when the connection ends, on every exit path (clean EOF, read/write
// error, idle or write timeout, drain). An Admit error rejects the
// handshake: its text travels to the client in the welcome frame and no
// session hooks fire.
type ServerHooks struct {
	// Admit vets an authenticated hello before its session opens. It
	// runs after HMAC verification, so client is a trusted identity.
	Admit func(client string, remote net.Addr) error
	// SessionOpen observes a freshly opened session.
	SessionOpen func(sess *Session)
	// SessionClose observes a session's end (its connection closed).
	SessionClose func(sess *Session)
	// BeforeCall vets one decoded request before dispatch; a non-nil
	// error is returned to the caller as the call's remote error and the
	// handler never runs. It may block (rate-limit throttling); the
	// connection's other in-flight requests proceed independently on the
	// concurrent dispatch path.
	BeforeCall func(sess *Session, method string, payloadBytes int) error
	// AfterCall observes one completed dispatch (handler plus response
	// vetting), including calls BeforeCall rejected.
	AfterCall func(sess *Session, method string, payloadBytes int, d time.Duration, failed bool)
}

// Session is the server-side state of one authenticated client
// connection: the component instances the client has bound, accumulated
// fees, and arbitrary per-session values.
type Session struct {
	ID     string
	Client string

	mu     sync.Mutex
	values map[string]any
	fees   float64
}

// Put stores a per-session value.
func (s *Session) Put(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.values == nil {
		s.values = make(map[string]any)
	}
	s.values[key] = v
}

// Get retrieves a per-session value.
func (s *Session) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[key]
	return v, ok
}

// Charge adds cents to the session's bill.
func (s *Session) Charge(cents float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fees += cents
}

// Fees returns the accumulated bill in cents.
func (s *Session) Fees() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fees
}

// Server is a gocad provider-side RPC endpoint.
type Server struct {
	Name string
	// Policy vets outbound responses; nil uses security.DefaultPolicy.
	Policy *security.MarshalPolicy
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between requests before the server drops it — dead or wedged
	// clients cannot pin goroutines forever. Clients reconnect
	// transparently when resilient.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the pre-session phase (hello frame,
	// welcome write). Zero selects DefaultHandshakeTimeout — the
	// hang a never-speaking dialer used to cause is closed by default;
	// negative disables the deadline (trusted in-process transports).
	HandshakeTimeout time.Duration
	// WriteTimeout, when positive, bounds each response frame write, so
	// a client that stops reading (filling its receive window) cannot
	// park the server's writer behind a full send buffer forever.
	WriteTimeout time.Duration
	// Hooks, when non-nil, observes and vets the connection lifecycle
	// (admission control, per-call quotas, metering). Set before Serve.
	Hooks *ServerHooks
	// LogBurst bounds how many logf lines per second reach Logf before
	// sampling: a reject storm must not turn the log into the
	// bottleneck. Zero selects DefaultLogBurst; negative disables the
	// limit. Suppressed lines are counted and reported in a summary
	// line when the next window opens.
	LogBurst int

	mu       sync.Mutex
	methods  map[string]Handler
	ordered  map[string]bool
	keys     map[string]security.Key
	sessions map[string]*Session
	conns    map[net.Conn]*connState
	nextSess uint64
	closed   bool
	ln       net.Listener
	// idle holds one token, sent when a connection's in-flight count
	// reaches zero or a connection unregisters: Drain waits on it
	// instead of polling.
	idle chan struct{}

	loglim logLimiter
}

// logLimiter is a per-second token window over diagnostic output: at
// most burst lines per wall-clock second, the rest counted and folded
// into one summary line when the next window opens.
type logLimiter struct {
	mu         sync.Mutex
	window     int64 // unix second of the current window
	emitted    int
	suppressed uint64
}

// allow reports whether one line may be emitted now. A positive
// suppressed return carries the count of lines dropped in the previous
// window (the caller should emit one summary for them).
func (l *logLimiter) allow(now time.Time, burst int) (ok bool, suppressed uint64) {
	sec := now.Unix()
	l.mu.Lock()
	defer l.mu.Unlock()
	if sec != l.window {
		l.window = sec
		l.emitted = 0
		suppressed = l.suppressed
		l.suppressed = 0
	}
	if l.emitted < burst {
		l.emitted++
		return true, suppressed
	}
	l.suppressed++
	return false, suppressed
}

// connState tracks one live connection's in-flight request count, the
// unit graceful drain waits on: a request is in flight from the moment
// it is decoded until its response has been written back. done closes
// when the connection's ServeConn returns, after its SessionClose hook.
type connState struct {
	inflight atomic.Int64
	done     chan struct{}
}

// settleWait bounds how long Drain waits for the serve goroutine of a
// connection it closed at or past its deadline: a cut connection's
// SessionClose hook runs only after its in-flight handlers return, so
// this is the time a handler may take to finish. Close, a drain with
// no time to spare, waits this long for every connection.
const settleWait = 5 * time.Second

// NewServer returns an empty server.
func NewServer(name string) *Server {
	return &Server{
		Name:     name,
		methods:  make(map[string]Handler),
		ordered:  make(map[string]bool),
		keys:     make(map[string]security.Key),
		sessions: make(map[string]*Session),
		conns:    make(map[net.Conn]*connState),
		idle:     make(chan struct{}, 1),
	}
}

// Handle registers a method handler. Handlers may run concurrently with
// each other on one session (up to sessionWorkers at once); a handler
// whose calls must not overlap registers with HandleOrdered instead.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.methods[method]; dup {
		panic(fmt.Sprintf("rmi: duplicate method %q", method))
	}
	s.methods[method] = h
}

// HandleOrdered registers a handler whose invocations must execute in
// request arrival order, serialized with respect to every other ordered
// method on the same session. Stateful methods — the provider's power
// and timing simulators advance per pattern batch — need this so a
// pipelined client's results are bit-identical to stop-and-wait;
// stateless methods registered with Handle run concurrently around them.
func (s *Server) HandleOrdered(method string, h Handler) {
	s.Handle(method, h)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ordered[method] = true
}

// isOrdered reports whether a method demands arrival-order execution.
func (s *Server) isOrdered(method string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ordered[method]
}

// Authorize registers a client's shared key. Only authorized clients can
// open sessions.
func (s *Server) Authorize(client string, key security.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[client] = key
}

// Serve accepts connections until the listener closes. It is typically
// run on its own goroutine. On a server already closed or draining it
// closes ln and returns at once.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("rmi: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Listen starts the server on a TCP address and returns the bound
// address; Serve runs on a background goroutine.
// Used only by tests: the rmi and provider test helpers that serve on loopback TCP.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(ln); err != nil && s.Logf != nil {
			s.Logf("rmi server %s: %v", s.Name, err)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the server at once: it is Drain with a zero timeout.
// Every connection is cut, busy or not, and Close waits up to
// settleWait for their serve goroutines, SessionClose hooks included.
// Used only by tests: TestCloseStopsLiveSessions, TestServeAfterClose.
func (s *Server) Close() error {
	return s.Drain(0)
}

// register enrolls a live connection in the drain ledger; it returns
// nil when the server is already closed or draining (the caller must
// abandon the connection without serving it).
func (s *Server) register(conn net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	st := &connState{done: make(chan struct{})}
	s.conns[conn] = st
	return st
}

// unregister removes a connection from the drain ledger.
func (s *Server) unregister(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.signalIdle()
}

// signalIdle wakes a Drain waiting for a connection to go idle. A send
// that finds the token already there is a no-op.
func (s *Server) signalIdle() {
	select {
	case s.idle <- struct{}{}:
	default:
	}
}

// Drain shuts the server down gracefully: the listener closes (no new
// sessions), every in-flight request — decoded but not yet answered —
// runs to completion and has its response written, and each connection
// is closed the moment it goes idle. A connection still mid-request at
// the timeout is force-closed, which a resilient client experiences as
// a poisoned epoch; within the timeout, a draining server never cuts a
// batch mid-flight. Drain then waits for the serve goroutine of every
// connection it closed, SessionClose hook included, so the caller may
// release what those hooks use: one closed before the deadline up to
// the deadline, one closed at or past it up to settleWait longer.
// Drain returns nil when every connection finished cleanly. Otherwise
// its error counts the serve goroutines still running when the wait
// ended and, when timeout is positive, the busy connections it cut; a
// zero timeout cuts them by design.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	deadline := time.Now().Add(timeout)
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	type cutConn struct {
		done  chan struct{}
		until time.Time
	}
	var cut []cutConn
	forced := 0
	for {
		s.mu.Lock()
		now := time.Now()
		late, until := !now.Before(deadline), deadline
		if late {
			until = now.Add(settleWait)
		}
		for conn, st := range s.conns {
			if st.inflight.Load() != 0 {
				if !late {
					continue
				}
				forced++
			}
			conn.Close()
			delete(s.conns, conn)
			cut = append(cut, cutConn{st.done, until})
		}
		left := len(s.conns)
		s.mu.Unlock()
		if left == 0 {
			break
		}
		select {
		case <-s.idle:
		case <-expired.C:
		}
	}
	running := 0
	for _, c := range cut {
		select {
		case <-c.done:
			continue
		case <-time.After(time.Until(c.until)):
		}
		select { // the timer may win a tie with done
		case <-c.done:
		default:
			running++
		}
	}
	if timeout <= 0 {
		forced = 0
	}
	if forced == 0 && running == 0 {
		return nil
	}
	return fmt.Errorf("rmi: drain timed out after %v: force-closed %d busy connection(s), %d serve goroutine(s) still running", timeout, forced, running)
}

// logf logs through Logf; the default is silence. Output is
// rate-limited to LogBurst lines per second (see the field) so a storm
// of per-connection failures — a reject flood against the gateway, a
// port scanner spraying garbage — cannot make logging itself the
// bottleneck. Dropped lines surface as one summary when the next
// window opens.
func (s *Server) logf(format string, args ...any) {
	if s.Logf == nil {
		return
	}
	burst := s.LogBurst
	if burst == 0 {
		burst = DefaultLogBurst
	}
	if burst < 0 {
		s.Logf(format, args...)
		return
	}
	ok, suppressed := s.loglim.allow(time.Now(), burst)
	if suppressed > 0 {
		s.Logf("rmi server %s: %d log line(s) suppressed by rate limit (%d/s)", s.Name, suppressed, burst)
	}
	if ok {
		s.Logf(format, args...)
	}
}

// ServeConn runs the protocol on one connection (used directly by tests
// and in-process deployments via net.Pipe).
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	st := s.register(conn)
	if st == nil {
		return // closed or draining: no new sessions
	}
	defer close(st.done)
	defer s.unregister(conn)

	// The whole pre-session phase — hello frame, welcome write — runs
	// under the handshake deadline, so a dialer that never speaks (or
	// never reads the welcome) cannot park this goroutine.
	if d := s.handshakeTimeout(); d > 0 {
		_ = conn.SetDeadline(time.Now().Add(d))
	}
	fw := &binFrameWriter{w: conn}
	// Requests go to worker goroutines while the next frame is read, so
	// their payloads must not alias the reader's buffer.
	fr := &binFrameReader{r: conn}

	// Handshake.
	var hello frame
	if err := fr.readFrame(&hello); err != nil {
		return
	}
	sess, err := s.handshake(&hello, conn.RemoteAddr())
	welcome := frame{Kind: kindWelcome}
	if err != nil {
		if sess != nil {
			s.closeSession(sess)
		}
		s.logf("rmi server %s: handshake rejected from %v: %v", s.Name, conn.RemoteAddr(), err)
		welcome.Err = err.Error()
		_ = fw.writeFrame(&welcome)
		return
	}
	defer s.closeSession(sess)
	welcome.Session = sess.ID
	if err := fw.writeFrame(&welcome); err != nil {
		return
	}
	// Leaving the handshake phase: clear its deadline and hand deadline
	// duty to the per-frame IdleTimeout / WriteTimeout arming below.
	_ = conn.SetDeadline(time.Time{})

	s.serveSession(conn, st, fr, fw, sess)
}

// handshakeTimeout resolves the effective pre-session deadline.
func (s *Server) handshakeTimeout() time.Duration {
	switch {
	case s.HandshakeTimeout > 0:
		return s.HandshakeTimeout
	case s.HandshakeTimeout < 0:
		return 0
	default:
		return DefaultHandshakeTimeout
	}
}

// serveSession runs the post-handshake request loop: this goroutine
// decodes requests and routes them, a bounded worker pool executes
// unordered handlers in parallel, and a single ordered lane executes
// HandleOrdered methods in arrival order. Each worker writes its own
// response under the session's write lock, in completion order (the
// pipelined client correlates responses by frame ID, so response order
// is free).
func (s *Server) serveSession(conn net.Conn, st *connState, fr *binFrameReader, fw *binFrameWriter, sess *Session) {
	var wmu sync.Mutex // serializes response frames; guards fw
	serve := func(reqs <-chan *frame) {
		for req := range reqs {
			resp := s.dispatch(sess, req)
			putFrame(req)
			wmu.Lock()
			if s.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			}
			err := fw.writeFrame(resp)
			wmu.Unlock()
			putFrame(resp)
			if st.inflight.Add(-1) == 0 { // answered (or abandoned): no longer drain-relevant
				s.signalIdle()
			}
			if err != nil {
				// The write side is gone: closing the conn stops the
				// request loop, and later writes fail fast, so every
				// decoded request still releases its in-flight count.
				conn.Close()
			}
		}
	}
	workCh := make(chan *frame)
	orderCh := make(chan *frame, sessionWorkers)
	var wg sync.WaitGroup
	wg.Add(sessionWorkers + 1)
	for i := 0; i < sessionWorkers; i++ {
		go func() {
			defer wg.Done()
			serve(workCh)
		}()
	}
	go func() { // ordered lane: arrival-order execution for stateful methods
		defer wg.Done()
		serve(orderCh)
	}()

	for {
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		req := getFrame()
		if err := fr.readFrame(req); err != nil {
			putFrame(req)
			if !errors.Is(err, io.EOF) {
				s.logf("rmi server %s: %v", s.Name, err)
			}
			break
		}
		st.inflight.Add(1)
		if s.isOrdered(req.Method) {
			orderCh <- req
		} else {
			workCh <- req
		}
	}
	close(workCh)
	close(orderCh)
	wg.Wait()
}

// handshake authenticates the hello frame and opens a session. The
// Admit hook runs after authentication and after every other failure
// source, so when it accepts, the session open is guaranteed — a front
// end can reserve an admission slot in Admit and release it in
// SessionClose without leak paths in between.
func (s *Server) handshake(hello *frame, remote net.Addr) (*Session, error) {
	if hello.Kind != kindHello {
		return nil, errors.New("rmi: protocol error: expected hello")
	}
	s.mu.Lock()
	key, ok := s.keys[hello.Client]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rmi: unknown client %q", hello.Client)
	}
	msg := append(append([]byte(nil), hello.Nonce...), hello.Client...)
	if !key.Verify(msg, hello.Tag) {
		return nil, fmt.Errorf("rmi: authentication failed for %q", hello.Client)
	}
	idBytes := make([]byte, 8)
	if _, err := rand.Read(idBytes); err != nil {
		return nil, err
	}
	h := s.Hooks
	if h != nil && h.Admit != nil {
		if err := h.Admit(hello.Client, remote); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.nextSess++
	sess := &Session{
		ID:     fmt.Sprintf("%s-%d-%s", s.Name, s.nextSess, hex.EncodeToString(idBytes)),
		Client: hello.Client,
	}
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	if h != nil && h.SessionOpen != nil {
		h.SessionOpen(sess)
	}
	return sess, nil
}

// closeSession retires a session when its connection ends: the session
// table must not grow one entry per connection forever under
// multi-tenant load. The SessionClose hook fires exactly once per
// opened session (ServeConn's exit paths all funnel here).
func (s *Server) closeSession(sess *Session) {
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	s.mu.Unlock()
	if h := s.Hooks; h != nil && h.SessionClose != nil {
		h.SessionClose(sess)
	}
}

// RespondReject answers an incoming connection's handshake with a
// rejection and closes it, without touching the server's session
// machinery. It is the gateway's fast-fail path for connections that
// exceed the bounded accept queue: the dialer gets a loud, typed wire
// error within the timeout instead of a silent hang or an unexplained
// reset. The hello is read (and discarded unverified — this path exists
// precisely because the server is too loaded to do per-connection work)
// so the rejection arrives where the client's handshake is listening
// for the welcome frame.
func RespondReject(conn net.Conn, timeout time.Duration, msg string) {
	defer conn.Close()
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	fr := &binFrameReader{r: conn, aliasPayload: true}
	var hello frame
	if err := fr.readFrame(&hello); err != nil {
		return
	}
	_ = (&binFrameWriter{w: conn}).writeFrame(&frame{Kind: kindWelcome, Err: msg})
}

// framePool recycles request and response frames (and their payload
// buffers) across sessions. A frame returns to the pool only once its
// single owner is done with it: requests after dispatch returns,
// responses after writeFrame — each frame belongs to one goroutine at a
// time, so no pooled frame is ever aliased.
var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame resets a frame for reuse, keeping the payload buffer's
// capacity (the frame reader and the payload encoder both append into
// it).
func putFrame(f *frame) {
	pl := f.Payload
	*f = frame{}
	f.Payload = pl[:0]
	framePool.Put(f)
}

// dispatch runs one request through its handler, vetting the response
// against the provider's marshalling policy. The returned frame comes
// from framePool; the caller releases it after writing.
func (s *Server) dispatch(sess *Session, req *frame) *frame {
	resp := getFrame()
	resp.Kind, resp.ID = kindResponse, req.ID
	if req.Kind != kindRequest || req.Session != sess.ID {
		resp.Err = "rmi: protocol error"
		return resp
	}
	s.mu.Lock()
	h, ok := s.methods[req.Method]
	s.mu.Unlock()
	if !ok {
		resp.Err = fmt.Sprintf("rmi: unknown method %q", req.Method)
		return resp
	}
	if hooks := s.Hooks; hooks != nil && (hooks.BeforeCall != nil || hooks.AfterCall != nil) {
		return s.dispatchHooked(hooks, sess, req, h)
	}
	return s.dispatchCall(sess, req, h)
}

// dispatchHooked wraps dispatchCall with the gateway's per-call vetting
// and metering hooks: BeforeCall may throttle (it blocks) or reject
// (its error becomes the call's remote error), AfterCall observes every
// outcome with the dispatch latency.
func (s *Server) dispatchHooked(hooks *ServerHooks, sess *Session, req *frame, h Handler) *frame {
	payloadBytes := len(req.Payload)
	method := req.Method
	start := time.Now()
	if hooks.BeforeCall != nil {
		if err := hooks.BeforeCall(sess, method, payloadBytes); err != nil {
			resp := getFrame()
			resp.Kind, resp.ID = kindResponse, req.ID
			resp.Err = err.Error()
			if hooks.AfterCall != nil {
				hooks.AfterCall(sess, method, payloadBytes, time.Since(start), true)
			}
			return resp
		}
	}
	resp := s.dispatchCall(sess, req, h)
	if hooks.AfterCall != nil {
		hooks.AfterCall(sess, method, payloadBytes, time.Since(start), resp.Err != "")
	}
	return resp
}

// dispatchCall runs the handler and vets/encodes its response.
func (s *Server) dispatchCall(sess *Session, req *frame, h Handler) *frame {
	resp := getFrame()
	resp.Kind, resp.ID = kindResponse, req.ID
	reply, err := func() (reply any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("rmi: handler %s panicked: %v", req.Method, r)
			}
		}()
		return h(sess, req.Payload)
	}()
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	policy := s.Policy
	if policy == nil {
		policy = &security.DefaultPolicy
	}
	pd, ok := reply.(PortData)
	if !ok {
		resp.Err = fmt.Sprintf("rmi: response %T does not declare its port data", reply)
		return resp
	}
	if err := checkOutbound(policy, pd); err != nil {
		resp.Err = err.Error()
		return resp
	}
	payload, err := appendPayload(resp.Payload[:0], reply)
	if err != nil {
		resp.Err = err.Error()
		resp.Payload = resp.Payload[:0]
		return resp
	}
	resp.Payload = payload
	return resp
}
