package rmi

import (
	"errors"
	mrand "math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/security"
)

// fastRetry is an aggressive policy keeping tests quick.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Multiplier: 2, JitterFrac: 0.2}

func testKey(t *testing.T) security.Key {
	t.Helper()
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// newFaultServer couples an echo server with a FaultyDialer over TCP: the
// i-th connection suffers the i-th scripted fault plan.
func newFaultServer(t *testing.T, plans []*netsim.FaultPlan) (*Client, *netsim.FaultyDialer, *atomic.Int32) {
	t.Helper()
	srv := NewServer("prov")
	key := testKey(t)
	srv.Authorize("user", key)
	var calls atomic.Int32
	srv.Handle("echo", func(sess *Session, payload []byte) (any, error) {
		calls.Add(1)
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Bits: req.Bits}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dialer := &netsim.FaultyDialer{
		Base:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Plans: plans,
	}
	conn, err := dialer.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(conn, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.Redial = dialer.Dial
	cli.Retry = fastRetry
	return cli, dialer, &calls
}

// TestRetryHealsConnectionReset kills the first connection at a scripted
// write count mid-run; every call must still succeed through reconnect.
func TestRetryHealsConnectionReset(t *testing.T) {
	cli, dialer, _ := newFaultServer(t, []*netsim.FaultPlan{netsim.ResetAfterWrites(10), nil})
	oldSession := cli.Session()
	for i := 0; i < 20; i++ {
		var resp echoResp
		if err := cli.Call("echo", echoReq{Note: "n"}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cli.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if dialer.Dials() != 2 {
		t.Errorf("dials = %d, want 2", dialer.Dials())
	}
	if fired := dialer.Conn(0).Fired(); len(fired) != 1 {
		t.Errorf("scripted fault did not fire: %v", fired)
	}
	if cli.Session() == oldSession {
		t.Error("session unchanged after reconnect; re-handshake did not happen")
	}
	if cli.Dead() {
		t.Error("client wrongly declared dead")
	}
}

// TestDroppedRequestTimesOutAndRetries swallows one request write: the
// provider never sees it, so only the per-call deadline can detect the
// loss, and the retry must replace the poisoned connection.
func TestDroppedRequestTimesOutAndRetries(t *testing.T) {
	cli, _, _ := newFaultServer(t, []*netsim.FaultPlan{netsim.DropWrite(10), nil})
	cli.Timeout = 200 * time.Millisecond
	for i := 0; i < 20; i++ {
		var resp echoResp
		if err := cli.Call("echo", echoReq{}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cli.Reconnects(); got < 1 {
		t.Errorf("reconnects = %d, want ≥ 1", got)
	}
}

// TestTruncatedFrameRecovered cuts a request frame short (reset
// mid-frame); the retry must succeed on a fresh connection.
func TestTruncatedFrameRecovered(t *testing.T) {
	cli, _, _ := newFaultServer(t, []*netsim.FaultPlan{netsim.TruncateWrite(10, 3), nil})
	for i := 0; i < 20; i++ {
		var resp echoResp
		if err := cli.Call("echo", echoReq{}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cli.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
}

// TestRemoteErrorNotRetried: an application-level error means the method
// executed; retrying would re-execute it.
func TestRemoteErrorNotRetried(t *testing.T) {
	srv := NewServer("prov")
	key := testKey(t)
	srv.Authorize("user", key)
	var n atomic.Int32
	srv.Handle("fail", func(sess *Session, payload []byte) (any, error) {
		n.Add(1)
		return nil, errors.New("application refused")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Retry = fastRetry
	var re *RemoteError
	err = cli.Call("fail", echoReq{}, nil)
	if err == nil || !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if n.Load() != 1 {
		t.Errorf("handler executed %d times, want exactly 1 (no retry)", n.Load())
	}
	if cli.Dead() {
		t.Error("application error must not declare the provider dead")
	}
}

// rogueBehavior scripts one rogue connection, speaking raw frames.
type rogueBehavior func(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32)

// rogueServer speaks raw frames so tests can script protocol-level
// misbehavior: ambiguous mid-call failures and stale-response desync.
type rogueServer struct {
	ln       net.Listener
	requests atomic.Int32
	// behave scripts connection i; the default echoes forever.
	behave []rogueBehavior
}

func startRogue(t *testing.T, behave ...rogueBehavior) *rogueServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &rogueServer{ln: ln, behave: behave}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b := rogueEcho
			if i < len(r.behave) && r.behave[i] != nil {
				b = r.behave[i]
			}
			go func() {
				defer conn.Close()
				fw, fr := &binFrameWriter{w: conn}, &binFrameReader{r: conn}
				var hello frame
				if err := fr.readFrame(&hello); err != nil {
					return
				}
				if err := fw.writeFrame(&frame{Kind: kindWelcome, Session: "rogue-session"}); err != nil {
					return
				}
				b(conn, fw, fr, &r.requests)
			}()
		}
	}()
	return r
}

func (r *rogueServer) addr() string { return r.ln.Addr().String() }

// rogueEcho answers every request correctly.
func rogueEcho(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	for {
		var req frame
		if err := fr.readFrame(&req); err != nil {
			return
		}
		requests.Add(1)
		if err := fw.writeFrame(&frame{Kind: kindResponse, ID: req.ID}); err != nil {
			return
		}
	}
}

// rogueDropAfterRead reads one request and slams the connection shut —
// the canonical ambiguous failure (did it execute?).
func rogueDropAfterRead(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	var req frame
	if fr.readFrame(&req) == nil {
		requests.Add(1)
	}
	conn.Close()
}

// rogueStaleID answers the first request with a mismatched response ID —
// the stream-desynchronization case — then echoes correctly.
func rogueStaleID(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	var req frame
	if fr.readFrame(&req) != nil {
		return
	}
	requests.Add(1)
	if fw.writeFrame(&frame{Kind: kindResponse, ID: req.ID + 7}) != nil {
		return
	}
	rogueEcho(conn, fw, fr, requests)
}

func rogueClient(t *testing.T, r *rogueServer) *Client {
	t.Helper()
	cli, err := Dial(r.addr(), "user", testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestAmbiguousFailureRetriedOnlyWhenIdempotent pins the idempotency
// contract: an ambiguous mid-call failure re-executes idempotent methods
// (duplicate execution is the accepted cost) and surfaces immediately
// for non-idempotent ones (at-most-once preserved).
func TestAmbiguousFailureRetriedOnlyWhenIdempotent(t *testing.T) {
	t.Run("idempotent", func(t *testing.T) {
		r := startRogue(t, rogueDropAfterRead) // conn 2+: echo
		cli := rogueClient(t, r)
		cli.Retry = fastRetry
		if err := cli.Call("m", echoReq{}, nil); err != nil {
			t.Fatalf("retry did not heal ambiguous failure: %v", err)
		}
		if n := r.requests.Load(); n != 2 {
			t.Errorf("method executed %d times, want 2 (original + retry)", n)
		}
	})
	t.Run("non-idempotent", func(t *testing.T) {
		r := startRogue(t, rogueDropAfterRead)
		cli := rogueClient(t, r)
		cli.Retry = fastRetry
		cli.Idempotent = func(method string) bool { return false }
		err := cli.Call("m", echoReq{}, nil)
		if err == nil {
			t.Fatal("ambiguous failure of non-idempotent call was hidden by retry")
		}
		if n := r.requests.Load(); n != 1 {
			t.Errorf("method executed %d times, want exactly 1", n)
		}
		// The client is not dead: the next (idempotent) call heals.
		cli.Idempotent = nil
		if err := cli.Call("m", echoReq{}, nil); err != nil {
			t.Fatalf("client did not recover for the next call: %v", err)
		}
	})
}

// TestStaleResponseDesyncBreaksAndHeals is the regression for the
// session-counter desynchronization bug: a response whose ID does not
// match the outstanding request means a stale frame is in the stream.
// The client must abandon the connection (not leave the counter and
// stream skewed) so the retry path can heal on a fresh session.
func TestStaleResponseDesyncBreaksAndHeals(t *testing.T) {
	r := startRogue(t, rogueStaleID)
	cli := rogueClient(t, r)
	cli.Retry = fastRetry
	if err := cli.Call("m", echoReq{}, nil); err != nil {
		t.Fatalf("desync not healed: %v", err)
	}
	if got := cli.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1 (stale frame must poison the connection)", got)
	}
	// Counters stay aligned afterwards: a burst of calls all match.
	for i := 0; i < 5; i++ {
		if err := cli.Call("m", echoReq{}, nil); err != nil {
			t.Fatalf("post-desync call %d: %v", i, err)
		}
	}
}

// TestStaleResponseWithoutRetrySurfacesAndIsolates: with retry disabled
// the desync error reaches the caller, and the poisoned connection is
// NOT reused — the next call runs on a fresh session instead of reading
// the stale frame as its own response.
func TestStaleResponseWithoutRetrySurfacesAndIsolates(t *testing.T) {
	r := startRogue(t, rogueStaleID)
	cli := rogueClient(t, r)
	err := cli.Call("m", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("err = %v, want desynchronization error", err)
	}
	// Next call must succeed via reconnect, not consume the stale frame.
	if err := cli.Call("m", echoReq{}, nil); err != nil {
		t.Fatalf("follow-up call: %v", err)
	}
	if got := cli.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
}

// TestProviderDeclaredDead exhausts retry and redial: the call must fail
// with ErrProviderDead and later calls must fail fast.
func TestProviderDeclaredDead(t *testing.T) {
	srv := NewServer("prov")
	key := testKey(t)
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (any, error) {
		return echoResp{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialer := &netsim.FaultyDialer{
		Base:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Plans: []*netsim.FaultPlan{netsim.ResetAfterWrites(8)},
	}
	conn, err := dialer.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(conn, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Retry = fastRetry
	cli.Redial = dialer.Dial
	// Take the provider down entirely: the listener stops accepting, so
	// every redial fails.
	srv.Close()

	var firstErr error
	for i := 0; i < 20 && firstErr == nil; i++ {
		firstErr = cli.Call("echo", echoReq{}, nil)
	}
	if firstErr == nil {
		t.Fatal("calls kept succeeding against a dead provider")
	}
	if !errors.Is(firstErr, ErrProviderDead) {
		t.Fatalf("err = %v, want ErrProviderDead", firstErr)
	}
	if !cli.Dead() {
		t.Error("client not marked dead")
	}
	// Fail-fast path: no backoff walk, immediate dead error.
	start := time.Now()
	err = cli.Call("echo", echoReq{}, nil)
	if !errors.Is(err, ErrProviderDead) {
		t.Fatalf("post-death err = %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("dead client call took %v, want fail-fast", d)
	}
}

// TestBackoffGrowsAndCaps pins the retry schedule shape.
func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond,
		50 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i+1, nil); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Jitter stays within its fraction.
	pj := p
	pj.JitterFrac = 0.5
	jr := mrand.New(mrand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		d := pj.backoff(2, jr)
		if d < 20*time.Millisecond || d > 30*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [20ms, 30ms]", d)
		}
	}
}

// TestZeroPolicyKeepsLegacyBehavior: without retry or redial a transport
// failure surfaces immediately and the client does not go dead.
func TestZeroPolicyKeepsLegacyBehavior(t *testing.T) {
	r := startRogue(t, rogueDropAfterRead)
	cli := rogueClient(t, r)
	cli.Redial = nil
	if err := cli.Call("m", echoReq{}, nil); err == nil {
		t.Fatal("transport failure hidden without a retry policy")
	}
	if cli.Dead() {
		t.Error("single-attempt failure must not declare the provider dead")
	}
	if errors.Is(cli.Call("m", echoReq{}, nil), ErrProviderDead) {
		t.Error("broken (not dead) client returned ErrProviderDead")
	}
}

// TestAckRunsBeforeConcurrentReconnect pins Invoke's ack ordering: a reply
// already off the wire is acknowledged before another caller's reconnect
// replays session state, although its own caller is still sleeping the
// emulated round trip. A call that fails is never acknowledged.
func TestAckRunsBeforeConcurrentReconnect(t *testing.T) {
	// Write 1 is the handshake, 2 the acknowledged call, 3 the other one.
	cli, dialer, _ := newFaultServer(t, []*netsim.FaultPlan{netsim.ResetAfterWrites(3), nil})
	cli.Profile = netsim.Profile{Name: "slow", OneWay: 20 * time.Millisecond}
	var acks atomic.Int32
	replayedAcks := make(chan int32, 1)
	cli.OnReconnect = func(func(string, PortData, any) error) error {
		select {
		case replayedAcks <- acks.Load():
		default:
		}
		return nil
	}
	answered := make(chan struct{})
	var once sync.Once
	cli.OnAttempt = func(string, time.Duration, error) { once.Do(func() { close(answered) }) }
	other := make(chan error, 1)
	go func() {
		<-answered
		other <- cli.Call("echo", echoReq{Note: "other"}, &echoResp{})
	}()
	if err := cli.Invoke("echo", echoReq{Note: "acked"}, &echoResp{}, true, func() { acks.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	if dialer.Dials() != 2 {
		t.Fatalf("dials = %d, want 2", dialer.Dials())
	}
	if got := <-replayedAcks; got != 1 {
		t.Errorf("acks seen by the reconnect replay = %d, want 1", got)
	}
	err := cli.Invoke("nosuch", echoReq{}, &echoResp{}, true, func() { acks.Add(1) })
	if err == nil || acks.Load() != 1 {
		t.Errorf("failed call: err %v, acks %d; want an error and no ack", err, acks.Load())
	}
}

// TestReconnectWaitsForRunningAck fails the epoch through another call's
// deadline while the reader is still inside an acknowledgement: the
// reconnect must wait for that acknowledgement before it replays.
func TestReconnectWaitsForRunningAck(t *testing.T) {
	cli, _, _ := newFaultServer(t, nil)
	cli.Timeout = 30 * time.Millisecond
	var acks atomic.Int32
	replayedAcks := make(chan int32, 1)
	cli.OnReconnect = func(func(string, PortData, any) error) error {
		select {
		case replayedAcks <- acks.Load():
		default:
		}
		return nil
	}
	inAck := make(chan struct{})
	other := make(chan error, 1)
	go func() {
		<-inAck
		// The reader is busy, so this call times out, poisons the epoch
		// and reconnects on its retry.
		other <- cli.Call("echo", echoReq{Note: "other"}, &echoResp{})
	}()
	err := cli.Invoke("echo", echoReq{Note: "acked"}, &echoResp{}, true, func() {
		close(inAck)
		time.Sleep(100 * time.Millisecond)
		acks.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	if got := <-replayedAcks; got != 1 {
		t.Errorf("acks seen by the reconnect replay = %d, want 1", got)
	}
}
