package netsim

import (
	"bytes"
	"errors"
	"net"
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

// TestChaosScheduleDeterministic: the same seed derives byte-identical
// scripts; different seeds (eventually) differ.
func TestChaosScheduleDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a := NewChaosSchedule(seed, 3)
		b := NewChaosSchedule(seed, 3)
		if a.Healthy != b.Healthy {
			t.Fatalf("seed %d: healthy %d vs %d", seed, a.Healthy, b.Healthy)
		}
		for i := range a.Scripts {
			if a.Scripts[i].Kind != b.Scripts[i].Kind || a.Scripts[i].RefuseFrom != b.Scripts[i].RefuseFrom {
				t.Fatalf("seed %d replica %d: script mismatch %+v vs %+v", seed, i, a.Scripts[i], b.Scripts[i])
			}
		}
	}
}

// TestChaosScheduleKeepsOneHealthy: every seed leaves exactly the
// designated replica unscripted.
func TestChaosScheduleKeepsOneHealthy(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cs := NewChaosSchedule(seed, 3)
		if cs.Healthy < 0 || cs.Healthy >= 3 {
			t.Fatalf("seed %d: healthy index %d out of range", seed, cs.Healthy)
		}
		for i, s := range cs.Scripts {
			if i == cs.Healthy {
				if s.Kind != ChaosNone || s.Plan != nil || s.RefuseFrom != -1 {
					t.Fatalf("seed %d: healthy replica scripted: %+v", seed, s)
				}
			} else if s.Kind == ChaosNone {
				t.Fatalf("seed %d replica %d: faulty slot left unscripted", seed, i)
			}
		}
	}
}

// TestChaosDialerRefusesFromIndex: a partition refuses every dial; a
// kill accepts the first and refuses redials; dial counts are tracked.
func TestChaosDialerRefusesFromIndex(t *testing.T) {
	base := newPipeBase(t)
	cs := &ChaosSchedule{
		Scripts: []ReplicaScript{
			{Kind: ChaosPartition, RefuseFrom: 0},
			{Kind: ChaosKill, Plan: ResetAfterWrites(1), RefuseFrom: 1},
			{Kind: ChaosNone, RefuseFrom: -1},
		},
		Healthy: 2,
		dials:   make([]int, 3),
	}

	if _, err := cs.Dialer(0, base)(); !errors.Is(err, ErrChaosPartition) {
		t.Fatalf("partitioned replica dial err = %v, want ErrChaosPartition", err)
	}

	kill := cs.Dialer(1, base)
	conn, err := kill()
	if err != nil {
		t.Fatalf("killed replica first dial: %v", err)
	}
	if _, ok := conn.(*FaultyConn); !ok {
		t.Fatalf("first connection of scripted replica is %T, want *FaultyConn", conn)
	}
	if _, err := kill(); !errors.Is(err, ErrChaosPartition) {
		t.Fatalf("killed replica redial err = %v, want ErrChaosPartition", err)
	}

	healthy := cs.Dialer(2, base)
	for i := 0; i < 3; i++ {
		if _, err := healthy(); err != nil {
			t.Fatalf("healthy replica dial %d: %v", i, err)
		}
	}

	for i, want := range []int{1, 2, 3} {
		cs.mu.Lock()
		got := cs.dials[i]
		cs.mu.Unlock()
		if got != want {
			t.Fatalf("replica %d absorbed %d dials, want %d", i, got, want)
		}
	}
}

// TestChaosFlapRecovers: a flapping replica's second connection is
// clean — no fault plan attached.
func TestChaosFlapRecovers(t *testing.T) {
	base := newPipeBase(t)
	cs := &ChaosSchedule{
		Scripts: []ReplicaScript{{Kind: ChaosFlap, Plan: ResetAfterWrites(1), RefuseFrom: -1}},
		Healthy: -1,
		dials:   make([]int, 1),
	}
	dial := cs.Dialer(0, base)
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

// TestChaosAllDeadScheduleKillsEveryone: no replica survives an
// AllDeadSchedule — every script either refuses dials outright or kills
// the first connection and refuses redials.
func TestChaosAllDeadScheduleKillsEveryone(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		cs := AllDeadSchedule(seed, 3)
		if cs.Healthy != -1 {
			t.Fatalf("seed %d: all-dead schedule has healthy index %d", seed, cs.Healthy)
		}
		for i, s := range cs.Scripts {
			switch s.Kind {
			case ChaosPartition:
				if s.RefuseFrom != 0 {
					t.Fatalf("seed %d replica %d: partition refuses from %d", seed, i, s.RefuseFrom)
				}
			case ChaosKill:
				if s.Plan == nil || s.RefuseFrom != 1 {
					t.Fatalf("seed %d replica %d: kill script %+v lets redials through", seed, i, s)
				}
			default:
				t.Fatalf("seed %d replica %d: survivable kind %v", seed, i, s.Kind)
			}
		}
	}
}
