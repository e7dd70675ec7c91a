package rmi

import (
	"errors"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/security"
)

// newDrainPair starts a TCP server with a "slow" handler that signals
// entry and then blocks until released (or for its sleep), plus the
// standard echo; it returns the server, a connected client, and the
// bound address for post-drain dial probes. hooks may be nil.
func newDrainPair(t *testing.T, entered chan struct{}, hold time.Duration, hooks *ServerHooks) (*Server, *Client, string) {
	t.Helper()
	srv := NewServer("prov")
	srv.Hooks = hooks
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Bits: req.Bits}, nil
	})
	srv.HandleOrdered("slow", func(sess *Session, payload []byte) (any, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(hold)
		return echoResp{Calls: 1}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(addr, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, addr
}

// TestDrainFinishesInFlightBatch is the drain contract: a batch already
// executing when drain starts completes and its response reaches the
// client — the epoch is never poisoned mid-batch — while the listener
// refuses new sessions. Its one case keeps the name "concurrent": every
// session runs the concurrent request loop.
func TestDrainFinishesInFlightBatch(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		leakcheck.Check(t)
		entered := make(chan struct{}, 1)
		srv, cli, addr := newDrainPair(t, entered, 100*time.Millisecond, nil)

		pending := cli.Go("slow", echoReq{}, &echoResp{})
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("slow handler never entered")
		}

		if err := srv.Drain(5 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		<-pending.Done
		if err := pending.Err(); err != nil {
			t.Fatalf("in-flight batch poisoned by drain: %v", err)
		}

		// The listener is down: no new sessions.
		if _, err := Dial(addr, "user", security.Key("k")); err == nil {
			t.Fatal("draining server accepted a new session")
		}
	})
}

// TestDrainTimeoutForceCloses bounds the wait: a handler that outlives
// -drain-timeout is cut off, reported in Drain's error, and the caller
// sees a transport fault rather than a hang.
func TestDrainTimeoutForceCloses(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	srv, cli, _ := newDrainPair(t, entered, 400*time.Millisecond, nil)

	pending := cli.Go("slow", echoReq{}, &echoResp{})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow handler never entered")
	}

	err := srv.Drain(20 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("drain err = %v, want force-closed report", err)
	}
	<-pending.Done
	if pending.Err() == nil {
		t.Fatal("force-closed connection still delivered a response")
	}
}

// TestDrainWaitsForSessionClose pins what a caller may do once Drain
// returns: release what the SessionClose hooks use (the gateway closes
// its billing ledger). Drain waits for the serve goroutine of every
// connection it closed, its hook included; one still running at the
// deadline is reported in the error.
func TestDrainWaitsForSessionClose(t *testing.T) {
	for _, c := range []struct {
		name    string
		hook    time.Duration
		timeout time.Duration
		want    int32  // hook runs finished when Drain returns
		wantErr string // "" for a clean drain
	}{
		{"within-deadline", 20 * time.Millisecond, 5 * time.Second, 1, ""},
		{"past-deadline", 300 * time.Millisecond, 20 * time.Millisecond, 0, "1 serve goroutine(s) still running"},
	} {
		t.Run(c.name, func(t *testing.T) {
			leakcheck.Check(t)
			var closed atomic.Int32
			hooks := &ServerHooks{SessionClose: func(*Session) {
				time.Sleep(c.hook)
				closed.Add(1)
			}}
			srv, cli, _ := newDrainPair(t, make(chan struct{}, 1), 0, hooks)
			// One completed call leaves the connection idle.
			if err := cli.Call("echo", echoReq{Note: "x"}, &echoResp{}); err != nil {
				t.Fatal(err)
			}
			err := srv.Drain(c.timeout)
			if n := closed.Load(); n != c.want {
				t.Errorf("SessionClose finished %d times when Drain returned, want %d", n, c.want)
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Errorf("drain: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Errorf("drain err = %v, want it to report %q", err, c.wantErr)
			}
		})
	}
}

// TestDrainIdleServer drains instantly with no connections or only idle
// ones.
func TestDrainIdleServer(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	srv, cli, _ := newDrainPair(t, entered, 0, nil)
	// One completed call leaves the connection idle.
	if err := cli.Call("echo", echoReq{Note: "x"}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("idle drain took %v", d)
	}
}

// TestCloseStopsLiveSessions: Close is Drain with a zero timeout. It
// cuts a live session, and when it returns the session's SessionClose
// hook has run and the client's next call fails.
func TestCloseStopsLiveSessions(t *testing.T) {
	leakcheck.Check(t)
	var closed atomic.Int32
	hooks := &ServerHooks{SessionClose: func(*Session) {
		time.Sleep(20 * time.Millisecond)
		closed.Add(1)
	}}
	srv, cli, _ := newDrainPair(t, make(chan struct{}, 1), 0, hooks)
	if err := cli.Call("echo", echoReq{Note: "x"}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := closed.Load(); n != 1 {
		t.Errorf("SessionClose finished %d times when Close returned, want 1", n)
	}
	if err := cli.Call("echo", echoReq{Note: "y"}, &echoResp{}); err == nil {
		t.Error("call after Close succeeded")
	}
}

// TestServeAfterClose: a Serve that starts after Close — Listen's
// goroutine can lose that race — closes its listener and returns
// instead of accepting forever.
func TestServeAfterClose(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := NewServer("prov")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve on a closed server did not return")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Serve returned: %v, want net.ErrClosed", err)
	}
}

// TestAttemptAndEpochFailHooks pins the failover layer's two rmi seams:
// OnAttempt sees every completed wire attempt with its outcome, and
// OnEpochFail fires once per poisoned epoch — but never for the
// administrative teardown of Close.
func TestAttemptAndEpochFailHooks(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	_, cli, _ := newDrainPair(t, entered, 300*time.Millisecond, nil)

	var mu sync.Mutex
	var attempts []error
	var epochFails []error
	cli.OnAttempt = func(method string, rtt time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if rtt <= 0 {
			t.Errorf("attempt %s reported non-positive rtt %v", method, rtt)
		}
		attempts = append(attempts, err)
	}
	cli.OnEpochFail = func(err error) {
		mu.Lock()
		defer mu.Unlock()
		epochFails = append(epochFails, err)
	}

	if err := cli.Call("echo", echoReq{Note: "ok"}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(attempts) != 1 || attempts[0] != nil {
		t.Fatalf("attempts after success = %v, want one nil entry", attempts)
	}
	if len(epochFails) != 0 {
		t.Fatalf("epoch fails after success = %v", epochFails)
	}
	mu.Unlock()

	// A per-call deadline expiry poisons the epoch: exactly one epoch
	// failure, and the attempt reports its error.
	cli.Timeout = 30 * time.Millisecond
	if err := cli.Call("slow", echoReq{}, &echoResp{}); err == nil {
		t.Fatal("slow call beat a 30ms deadline")
	}
	mu.Lock()
	if len(epochFails) != 1 {
		t.Fatalf("epoch fails after deadline = %d, want 1", len(epochFails))
	}
	if len(attempts) != 2 || attempts[1] == nil {
		t.Fatalf("attempts after deadline = %v, want a second, failed entry", attempts)
	}
	mu.Unlock()

	// Close is administrative: the hook must not blame a replica.
	cli.Timeout = 0
	if err := cli.Close(); err != nil && !errors.Is(err, errClientClosed) {
		t.Logf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochFails) != 1 {
		t.Fatalf("Close fired the epoch-fail hook: %v", epochFails)
	}
}

// BenchmarkDrainAfterLastResponse measures how long Drain takes to
// return once the last in-flight request of its one busy connection is
// answered. Each iteration parks one call in its handler, starts Drain,
// releases the handler, and times Drain's return from the moment the
// handler returned. It reports the p50 and p99 of that latency.
func BenchmarkDrainAfterLastResponse(b *testing.B) {
	key, err := security.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		srv := NewServer("prov")
		srv.Authorize("user", key)
		entered, release := make(chan struct{}), make(chan struct{})
		var answered atomic.Int64 // unix nanoseconds at the handler's return
		srv.HandleOrdered("slow", func(*Session, []byte) (any, error) {
			entered <- struct{}{}
			<-release
			answered.Store(time.Now().UnixNano())
			return echoResp{}, nil
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		cli, err := Dial(addr, "user", key)
		if err != nil {
			b.Fatal(err)
		}
		pending := cli.Go("slow", echoReq{}, &echoResp{})
		<-entered
		returned := make(chan time.Time)
		go func() {
			if err := srv.Drain(5 * time.Second); err != nil {
				b.Error(err)
			}
			returned <- time.Now()
		}()
		time.Sleep(time.Millisecond) // let Drain find the connection busy
		close(release)
		lat = append(lat, (<-returned).Sub(time.Unix(0, answered.Load())))
		<-pending.Done
		cli.Close()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds()) / 1e3 }
	b.ReportMetric(us(0.50), "p50_us")
	b.ReportMetric(us(0.99), "p99_us")
}
