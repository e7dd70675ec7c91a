package rmi

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/security"
)

// TestHandshakeDeadlineStalledDialer is the regression test for the
// handshake-hang exposure: a client that connects and never sends its
// hello frame used to park a ServeConn goroutine indefinitely when no
// IdleTimeout was set. With the handshake deadline the server must
// close the connection and release the goroutine on its own.
func TestHandshakeDeadlineStalledDialer(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer("prov")
	srv.HandshakeTimeout = 100 * time.Millisecond
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on us, which we observe as
	// the read side of our connection closing.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server sent data to a client that never completed the handshake")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a never-speaking connection open past the handshake deadline")
	}
}

// TestHandshakeDeadlinePartialHello stalls one byte into the protocol
// (a frame header's first byte, not enough to form a hello frame): the
// deadline must still cut the connection loose.
func TestHandshakeDeadlinePartialHello(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer("prov")
	srv.HandshakeTimeout = 100 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{binMagic0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a half-handshake")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a stalled half-handshake open past the deadline")
	}
}

// gobHello is the opening of a hello frame as a gob-speaking peer sends
// it: the gob type descriptor of the frame struct. Its first byte is a
// gob message length, never wire format v1's 0x00 magic.
var gobHello = []byte{0x6a, 0x7f, 0x03, 0x01, 0x01, 0x05, 'f', 'r', 'a', 'm', 'e', 0x01, 0xff, 0x80, 0x00, 0x01}

// refusedPromptly writes gobHello on conn and asserts the peer hangs up
// without a welcome frame well inside timeout: the frame reader's magic
// check refuses the stream at the first header, not at the deadline.
func refusedPromptly(t *testing.T, conn net.Conn, timeout time.Duration) {
	t.Helper()
	start := time.Now()
	if _, err := conn.Write(gobHello); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("peer answered a gob stream with %d byte(s)", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("peer kept a gob stream open")
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Fatalf("gob stream refused after %v, want well inside the %v handshake timeout", elapsed, timeout)
	}
}

// TestServeRefusesGobStream: a dialer speaking gob framing is dropped
// by ServeConn on its first header, with no session opened and no
// goroutine left behind.
func TestServeRefusesGobStream(t *testing.T) {
	leakcheck.Check(t)
	const timeout = 2 * time.Second
	srv := NewServer("prov")
	srv.HandshakeTimeout = timeout
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	refusedPromptly(t, conn, timeout)
	if n := len(srv.Sessions()); n != 0 {
		t.Errorf("%d session(s) opened for a gob stream", n)
	}
}

// TestRespondRejectRefusesGobStream: the gateway's fast-reject lane
// drops a gob dialer the same way, returning before its timeout.
func TestRespondRejectRefusesGobStream(t *testing.T) {
	leakcheck.Check(t)
	const timeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		RespondReject(conn, timeout, "queue full")
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	refusedPromptly(t, conn, timeout)
	<-done
}

// TestSessionRetiredOnDisconnect: the session table must not grow one
// entry per connection forever — a closed connection retires its
// session.
func TestSessionRetiredOnDisconnect(t *testing.T) {
	leakcheck.Check(t)
	srv, cli := newTestPair(t, nil)
	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("sessions while connected = %d, want 1", got)
	}
	cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not retired after disconnect: %d live", len(srv.Sessions()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLogfRateLimited feeds a 10k-line burst through the server's
// logging path (what a reject storm produces) and asserts the sink sees
// a bounded number of lines plus a suppression summary — the log must
// never become the bottleneck of the rejection path itself.
func TestLogfRateLimited(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv := NewServer("prov")
	srv.LogBurst = 20
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	}
	for i := 0; i < 10_000; i++ {
		srv.logf("rmi server %s: handshake rejected from %v: %v", srv.Name, "peer", "overload")
	}
	mu.Lock()
	n := len(lines)
	mu.Unlock()
	// The burst can straddle one window boundary: at most two windows'
	// worth of lines (plus one summary) may land.
	if n > 2*srv.LogBurst+1 {
		t.Fatalf("10k-line burst produced %d log lines, want <= %d", n, 2*srv.LogBurst+1)
	}

	// The next window must surface the suppressed count loudly.
	time.Sleep(1100 * time.Millisecond)
	srv.logf("post-burst line")
	mu.Lock()
	defer mu.Unlock()
	var sawSummary bool
	for _, l := range lines {
		if strings.Contains(l, "suppressed by rate limit") {
			sawSummary = true
		}
	}
	if !sawSummary {
		t.Fatalf("no suppression summary after a 10k burst; lines: %d", len(lines))
	}
}

// TestLogfUnlimitedOptOut pins the escape hatch: LogBurst < 0 disables
// sampling entirely.
func TestLogfUnlimitedOptOut(t *testing.T) {
	var n atomic.Int64
	srv := NewServer("prov")
	srv.LogBurst = -1
	srv.Logf = func(format string, args ...any) { n.Add(1) }
	for i := 0; i < 500; i++ {
		srv.logf("line %d", i)
	}
	if got := n.Load(); got != 500 {
		t.Fatalf("unlimited logf emitted %d of 500 lines", got)
	}
}

// TestNewClientHonoursConnDeadline: a fault that swallows the client's
// hello leaves NewClient waiting for a welcome that never comes. With
// no Client.Timeout yet, only a deadline already on the conn bounds
// that wait, and NewClient must end in an error wrapping
// os.ErrDeadlineExceeded instead of hanging.
func TestNewClientHonoursConnDeadline(t *testing.T) {
	leakcheck.Check(t)
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	go func() { _, _ = io.Copy(io.Discard, srvConn) }() // a peer that never answers
	fc := netsim.DropWrite(1).Wrap(cliConn)
	_ = fc.SetDeadline(time.Now().Add(50 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := NewClient(fc, "user", key)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("NewClient = %v, want an error wrapping os.ErrDeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewClient hung on a dropped hello despite the conn deadline")
	}
	if fired := fc.Fired(); len(fired) != 1 || fired[0].Kind != netsim.FaultDrop {
		t.Fatalf("fired rules %v, want the hello dropped", fired)
	}
}
