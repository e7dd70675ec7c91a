package rmi

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/security"
	"repro/internal/signal"
	"repro/internal/wire"
)

// echoReq and echoResp are simple test envelopes.
type echoReq struct {
	Bits []signal.Bit
	Note string
}

func (r echoReq) PortData() []any { return []any{r.Bits, r.Note} }

// echoReq and echoResp implement the payload interfaces every envelope
// crossing the wire needs.
func (r echoReq) AppendTo(b []byte) []byte {
	b = wire.AppendBits(b, r.Bits)
	return wire.AppendString(b, r.Note)
}

func (r *echoReq) DecodeFrom(buf []byte) error {
	var err error
	*r = echoReq{}
	if r.Bits, buf, err = wire.Bits(buf); err != nil {
		return err
	}
	if r.Note, buf, err = wire.String(buf); err != nil {
		return err
	}
	if len(buf) != 0 {
		return errors.New("trailing bytes after echoReq")
	}
	return nil
}

type echoResp struct {
	Bits  []signal.Bit
	Calls int
}

func (r echoResp) PortData() []any { return []any{r.Bits, r.Calls} }

func (r echoResp) AppendTo(b []byte) []byte {
	b = wire.AppendBits(b, r.Bits)
	return wire.AppendVarint(b, int64(r.Calls))
}

func (r *echoResp) DecodeFrom(buf []byte) error {
	var err error
	*r = echoResp{}
	if r.Bits, buf, err = wire.Bits(buf); err != nil {
		return err
	}
	var calls int64
	if calls, buf, err = wire.Varint(buf); err != nil {
		return err
	}
	r.Calls = int(calls)
	if len(buf) != 0 {
		return errors.New("trailing bytes after echoResp")
	}
	return nil
}

// leakResp fails to declare port data correctly.
type leakResp struct {
	Secret map[string]int
}

func (r leakResp) PortData() []any { return []any{r.Secret} }

// newTestPair starts a server with an echo method and returns a
// connected, authenticated client.
func newTestPair(t *testing.T, configure func(*Server)) (*Server, *Client) {
	t.Helper()
	srv := NewServer("prov")
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srv.Authorize("user", key)
	var calls atomic.Int64 // echo handlers run on concurrent session workers
	srv.Handle("echo", func(sess *Session, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		n := calls.Add(1)
		sess.Charge(0.1)
		return echoResp{Bits: req.Bits, Calls: int(n)}, nil
	})
	srv.Handle("leak", func(sess *Session, payload []byte) (any, error) {
		return leakResp{Secret: map[string]int{"netlist": 1}}, nil
	})
	srv.Handle("boom", func(sess *Session, payload []byte) (any, error) {
		panic("handler exploded")
	})
	if configure != nil {
		configure(srv)
	}
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
	return srv, cli
}

func TestCallRoundTrip(t *testing.T) {
	_, cli := newTestPair(t, nil)
	req := echoReq{Bits: []signal.Bit{signal.B1, signal.B0}, Note: "hi"}
	var resp echoResp
	if err := cli.Call("echo", req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Bits) != 2 || resp.Bits[0] != signal.B1 {
		t.Errorf("echo payload wrong: %+v", resp)
	}
	if resp.Calls != 1 {
		t.Errorf("server call count = %d", resp.Calls)
	}
}

func TestSessionEstablishedAndBilled(t *testing.T) {
	srv, cli := newTestPair(t, nil)
	if cli.Session() == "" {
		t.Fatal("no session id")
	}
	var resp echoResp
	for i := 0; i < 3; i++ {
		if err := cli.Call("echo", echoReq{}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	if fees := sessions[0].Fees(); fees < 0.299 || fees > 0.301 {
		t.Errorf("fees = %v, want 0.3", fees)
	}
	if sessions[0].Client != "user" {
		t.Errorf("session client = %q", sessions[0].Client)
	}
}

func TestAuthenticationRejectsWrongKey(t *testing.T) {
	srv := NewServer("prov")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wrong, _ := security.NewKey()
	if _, err := Dial(addr, "user", wrong); err == nil {
		t.Fatal("wrong key accepted")
	}
	if _, err := Dial(addr, "stranger", key); err == nil {
		t.Fatal("unknown client accepted")
	}
	if _, err := Dial(addr, "user", key); err != nil {
		t.Fatalf("valid client rejected: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	err := cli.Call("nope", echoReq{}, &resp)
	var re *RemoteError
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
	if !asRemote(err, &re) {
		t.Fatal("not a RemoteError")
	}
}

func asRemote(err error, target **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestHandlerPanicIsolated(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	err := cli.Call("boom", echoReq{}, &resp)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	// The connection must survive a handler panic.
	if err := cli.Call("echo", echoReq{}, &resp); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

func TestMarshalPolicyBlocksOutboundRequest(t *testing.T) {
	_, cli := newTestPair(t, nil)
	// An envelope whose port data includes a disallowed type.
	bad := echoReqWithSecret{}
	var resp echoResp
	err := cli.Call("echo", bad, &resp)
	if err == nil || !strings.Contains(err.Error(), "IP boundary") {
		t.Fatalf("policy did not block outbound request: %v", err)
	}
}

type echoReqWithSecret struct{ Bits []signal.Bit }

func (r echoReqWithSecret) PortData() []any {
	return []any{map[string]int{"design": 1}}
}

func TestMarshalPolicyBlocksOutboundResponse(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp leakResp
	err := cli.Call("leak", echoReq{}, &resp)
	if err == nil || !strings.Contains(err.Error(), "IP boundary") {
		t.Fatalf("policy did not block outbound response: %v", err)
	}
}

func TestEmulatedDelayAndMetering(t *testing.T) {
	var meter netsim.Meter
	_, cli := newTestPair(t, nil)
	cli.Profile = netsim.Profile{Name: "slow", OneWay: 5 * time.Millisecond}
	cli.Meter = &meter
	var resp echoResp
	start := time.Now()
	if err := cli.Call("echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall < 10*time.Millisecond {
		t.Errorf("call returned in %v; expected ≥ 10ms injected delay", wall)
	}
	if meter.Blocked() < 10*time.Millisecond {
		t.Errorf("metered blocked = %v", meter.Blocked())
	}
	if meter.Calls() != 1 || meter.Bytes() == 0 {
		t.Errorf("meter calls=%d bytes=%d", meter.Calls(), meter.Bytes())
	}
}

func TestAsyncGo(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	p := cli.Go("echo", echoReq{Bits: []signal.Bit{signal.B1}}, &resp)
	<-p.Done
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if len(resp.Bits) != 1 {
		t.Error("async reply missing")
	}
}

func TestConcurrentCallsSerialized(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			errs[i] = cli.Call("echo", echoReq{Bits: []signal.Bit{signal.B0}}, &resp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// TestServerOverlapsHandleKeepsOrdered pins the dispatch contract of a
// server with no configuration: two calls to a blocking Handle method
// run at once, while HandleOrdered calls execute in the order their
// frames arrived. It speaks raw frames so the arrival order is the
// order written here.
func TestServerOverlapsHandleKeepsOrdered(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer("prov")
	key := testKey(t)
	srv.Authorize("user", key)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	srv.Handle("block", func(sess *Session, payload []byte) (any, error) {
		entered <- struct{}{}
		<-release
		return echoResp{}, nil
	})
	const ordered = 6
	var mu sync.Mutex
	var order []string
	srv.HandleOrdered("seq", func(sess *Session, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		// Earlier calls sleep longer, so calls that overlapped would
		// finish out of order.
		n, _ := strconv.Atoi(req.Note)
		time.Sleep(time.Duration(ordered-n) * time.Millisecond)
		mu.Lock()
		order = append(order, req.Note)
		mu.Unlock()
		return echoResp{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	t.Cleanup(unblock) // runs first: a failed test must not strand the handlers

	fw, fr := &binFrameWriter{w: conn}, &binFrameReader{r: conn}
	nonce := []byte("0123456789abcdef")
	hello := frame{Kind: kindHello, Client: "user", Nonce: nonce,
		Tag: key.Tag(append(append([]byte(nil), nonce...), "user"...))}
	var welcome frame
	if err := fw.writeFrame(&hello); err != nil {
		t.Fatal(err)
	}
	if err := fr.readFrame(&welcome); err != nil || welcome.Err != "" {
		t.Fatalf("handshake: %v %q", err, welcome.Err)
	}
	responses := make(chan frame, 2+ordered)
	go func() {
		defer close(responses)
		for {
			var resp frame
			if fr.readFrame(&resp) != nil {
				return
			}
			responses <- resp
		}
	}()
	send := func(id uint64, method string, note string) {
		payload, err := EncodePayload(echoReq{Note: note})
		if err != nil {
			t.Fatal(err)
		}
		req := frame{Kind: kindRequest, ID: id, Session: welcome.Session, Method: method, Payload: payload}
		if err := fw.writeFrame(&req); err != nil {
			t.Fatal(err)
		}
	}

	send(1, "block", "")
	send(2, "block", "")
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 blocking calls entered their handler; Handle calls did not overlap", i)
		}
	}
	unblock()
	for i := 0; i < ordered; i++ {
		send(uint64(10+i), "seq", strconv.Itoa(i))
	}
	for i := 0; i < 2+ordered; i++ {
		select {
		case resp, ok := <-responses:
			if !ok {
				t.Fatalf("connection closed after %d responses", i)
			}
			if resp.Err != "" {
				t.Fatalf("request %d: %s", resp.ID, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d responses arrived", i, 2+ordered)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, note := range order {
		if note != strconv.Itoa(i) {
			t.Fatalf("ordered calls ran as %v, want arrival order", order)
		}
	}
}

func TestServeConnOverPipe(t *testing.T) {
	srv := NewServer("pipe")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Bits: req.Bits}, nil
	})
	a, b := net.Pipe()
	go srv.ServeConn(a)
	cli, err := NewClient(b, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp echoResp
	if err := cli.Call("echo", echoReq{Bits: []signal.Bit{signal.BX}}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Bits) != 1 || resp.Bits[0] != signal.BX {
		t.Error("pipe transport broke payload")
	}
}

func TestClosedClientRejectsCalls(t *testing.T) {
	_, cli := newTestPair(t, nil)
	cli.Close()
	var resp echoResp
	if err := cli.Call("echo", echoReq{}, &resp); err == nil {
		t.Error("closed client accepted call")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := echoReq{Bits: []signal.Bit{signal.B0, signal.B1, signal.BZ}, Note: "n"}
	b, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out echoReq
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Note != in.Note || len(out.Bits) != 3 || out.Bits[2] != signal.BZ {
		t.Errorf("round trip = %+v", out)
	}
}

// TestDecodeRejectsUntaggedPayload: a payload that does not open with
// the binary tag — empty, or a legacy gob stream — is an error, never a
// panic or a silent fallback.
func TestDecodeRejectsUntaggedPayload(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, {0x0c, 0xff, 0x81}, {0xff, 0x00}} {
		var out echoReq
		if err := Decode(raw, &out); err == nil {
			t.Errorf("Decode(% x) succeeded", raw)
		}
	}
}

// TestEncodePayloadRequiresAppendTo: an envelope that declares its port
// data but has no AppendTo encoding cannot be serialized.
func TestEncodePayloadRequiresAppendTo(t *testing.T) {
	var pd PortData = echoReqWithSecret{Bits: []signal.Bit{signal.B1}}
	if raw, err := EncodePayload(pd); err == nil {
		t.Fatalf("EncodePayload(%T) = % x, want an error", pd, raw)
	}
}

func TestDuplicateMethodPanics(t *testing.T) {
	srv := NewServer("dup")
	srv.Handle("m", func(*Session, []byte) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate method did not panic")
		}
	}()
	srv.Handle("m", func(*Session, []byte) (any, error) { return nil, nil })
}

func TestCallTimeout(t *testing.T) {
	srv := NewServer("slow")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	block := make(chan struct{})
	srv.Handle("hang", func(sess *Session, payload []byte) (any, error) {
		<-block
		return echoResp{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)
	cli, err := Dial(addr, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 50 * time.Millisecond
	var resp echoResp
	start := time.Now()
	err = cli.Call("hang", echoReq{}, &resp)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// A timed-out client is closed: further calls fail fast.
	if err := cli.Call("hang", echoReq{}, &resp); err == nil {
		t.Fatal("timed-out client accepted another call")
	}
}
