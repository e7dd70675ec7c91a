package netsim

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestFaultPartialLeavesConnOpen pins the torn-write contract: the peer
// receives exactly Keep bytes, the writer sees the short count plus
// ErrInjectedPartial, and — unlike truncate — the connection survives
// and later writes go through.
func TestFaultPartialLeavesConnOpen(t *testing.T) {
	msg := []byte("0123456789")
	fc, peer := pipePair(t, planOf(FaultRule{Op: OnWrite, Nth: 1, Kind: FaultPartial, Keep: 4}))
	got := readChunks(peer)

	n, err := fc.Write(msg)
	if !errors.Is(err, ErrInjectedPartial) {
		t.Fatalf("partial write err = %v, want ErrInjectedPartial", err)
	}
	if n != 4 {
		t.Fatalf("partial write n = %d, want 4", n)
	}
	// The stream is torn, not dead: a follow-up write still flows.
	if _, err := fc.Write([]byte("ab")); err != nil {
		t.Fatalf("write after partial: %v", err)
	}
	fc.Close()
	var received []byte
	for c := range got {
		received = append(received, c...)
	}
	if want := []byte("0123ab"); !bytes.Equal(received, want) {
		t.Fatalf("peer received %q, want %q", received, want)
	}
}

// TestFaultPartialKeepClamp bounds Keep at the buffer length.
func TestFaultPartialKeepClamp(t *testing.T) {
	fc, peer := pipePair(t, planOf(FaultRule{Op: OnWrite, Nth: 1, Kind: FaultPartial, Keep: 99}))
	got := readChunks(peer)
	n, err := fc.Write([]byte("xy"))
	if !errors.Is(err, ErrInjectedPartial) || n != 2 {
		t.Fatalf("clamped partial = (%d, %v), want (2, ErrInjectedPartial)", n, err)
	}
	fc.Close()
	var received int
	for c := range got {
		received += len(c)
	}
	if received != 2 {
		t.Fatalf("peer received %d bytes, want 2", received)
	}
}

// TestFaultSlowDripDeliversEverything pins the slow-peer contract: all
// bytes arrive intact and in order, just slowly, and the write reports
// full success.
func TestFaultSlowDripDeliversEverything(t *testing.T) {
	msg := []byte("abcdefgh")
	fc, peer := pipePair(t, SlowDripWrite(1, 100*time.Microsecond))
	got := readChunks(peer)

	start := time.Now()
	n, err := fc.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("drip write = (%d, %v), want (%d, nil)", n, err, len(msg))
	}
	if d := time.Since(start); d < 7*100*time.Microsecond {
		t.Fatalf("drip write finished in %v, faster than the scripted pacing", d)
	}
	fc.Close()
	var received []byte
	for c := range got {
		received = append(received, c...)
	}
	if !bytes.Equal(received, msg) {
		t.Fatalf("peer received %q, want %q", received, msg)
	}
}

// TestFaultSlowDripShortRead pins the read side: the scripted read
// returns exactly one byte after the delay — a legal short read that
// must not confuse a length-prefixed codec.
func TestFaultSlowDripShortRead(t *testing.T) {
	fc, peer := pipePair(t, planOf(FaultRule{Op: OnRead, Nth: 1, Kind: FaultSlowDrip}))
	go peer.Write([]byte("hello"))

	buf := make([]byte, 16)
	n, err := fc.Read(buf)
	if err != nil || n != 1 {
		t.Fatalf("drip read = (%d, %v), want (1, nil)", n, err)
	}
	if buf[0] != 'h' {
		t.Fatalf("drip read byte = %q, want 'h'", buf[0])
	}
	// The next (unscripted) read drains normally.
	n, err = fc.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("follow-up read = (%d, %v)", n, err)
	}
}

// newPipeBase returns a base dialer handing out fresh in-memory pipes
// with a discarding peer, for schedule-level dial accounting tests.
func newPipeBase(t *testing.T) func() (net.Conn, error) {
	t.Helper()
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		go func() {
			buf := make([]byte, 256)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		return a, nil
	}
}

// TestChaosScheduleDeterministic: the same seed derives the same script
// for every kind; the seeded reset writes spread over their range.
func TestChaosScheduleDeterministic(t *testing.T) {
	resets := map[int]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		for kind := ChaosKill; kind <= ChaosFlap; kind++ {
			a, b := NewChaosSchedule(seed, kind), NewChaosSchedule(seed, kind)
			if a.Kind != kind || !reflect.DeepEqual(a.Plan, b.Plan) {
				t.Fatalf("seed %d %v: scripts differ: %+v vs %+v", seed, kind, a.Plan, b.Plan)
			}
			if (a.Plan == nil) != (kind == ChaosPartition) {
				t.Fatalf("seed %d %v: plan %+v", seed, kind, a.Plan)
			}
			if kind == ChaosKill {
				resets[a.Plan.Rules[0].Nth] = true
			}
		}
	}
	if len(resets) < 2 {
		t.Fatalf("ten seeds drew kill resets at writes %v only", resets)
	}
}

// TestChaosDialerRefusesFromIndex: a partition refuses every dial; a
// kill accepts the first and refuses redials; slow drips and flaps
// refuse none.
func TestChaosDialerRefusesFromIndex(t *testing.T) {
	base := newPipeBase(t)

	part := &ChaosSchedule{Kind: ChaosPartition}
	if _, err := part.Dialer(base)(); !errors.Is(err, ErrChaosPartition) {
		t.Fatalf("partitioned provider dial err = %v, want ErrChaosPartition", err)
	}

	kill := (&ChaosSchedule{Kind: ChaosKill, Plan: ResetAfterWrites(1)}).Dialer(base)
	conn, err := kill()
	if err != nil {
		t.Fatalf("killed provider first dial: %v", err)
	}
	if _, ok := conn.(*FaultyConn); !ok {
		t.Fatalf("first connection of a scripted provider is %T, want *FaultyConn", conn)
	}
	if _, err := kill(); !errors.Is(err, ErrChaosPartition) {
		t.Fatalf("killed provider redial err = %v, want ErrChaosPartition", err)
	}

	drip := &ChaosSchedule{Kind: ChaosSlowDrip, Plan: SlowDripWrite(1, time.Microsecond)}
	dial := drip.Dialer(base)
	for i := 0; i < 3; i++ {
		if _, err := dial(); err != nil {
			t.Fatalf("slow-drip provider dial %d: %v", i, err)
		}
	}
	if got := drip.dials.Load(); got != 3 {
		t.Fatalf("slow-drip provider absorbed %d dials, want 3", got)
	}
}

// TestChaosFlapRecovers: a flapping provider's second connection is
// clean — no fault plan attached.
func TestChaosFlapRecovers(t *testing.T) {
	base := newPipeBase(t)
	dial := (&ChaosSchedule{Kind: ChaosFlap, Plan: ResetAfterWrites(1)}).Dialer(base)
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.(*FaultyConn); !ok {
		t.Fatalf("flap first connection is %T, want *FaultyConn", first)
	}
	second, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.(*FaultyConn); ok {
		t.Fatal("flap recovery connection still fault-wrapped")
	}
}
