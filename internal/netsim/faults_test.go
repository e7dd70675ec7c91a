package netsim

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a fault-wrapped client side and the raw peer.
func pipePair(t *testing.T, plan *FaultPlan) (*FaultyConn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return plan.Wrap(a), b
}

// readAll drains the peer into a channel of received chunks.
func readChunks(peer net.Conn) chan []byte {
	out := make(chan []byte, 16)
	go func() {
		defer close(out)
		for {
			buf := make([]byte, 256)
			n, err := peer.Read(buf)
			if n > 0 {
				out <- buf[:n]
			}
			if err != nil {
				return
			}
		}
	}()
	return out
}

func TestFaultPlansTable(t *testing.T) {
	msg := []byte("0123456789")
	tests := []struct {
		name  string
		plan  *FaultPlan
		check func(t *testing.T, fc *FaultyConn, peer net.Conn)
	}{
		{
			name: "drop-after-N",
			plan: DropWrite(2),
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				got := readChunks(peer)
				for i := 0; i < 3; i++ {
					if _, err := fc.Write(msg); err != nil {
						t.Fatalf("write %d: %v", i+1, err)
					}
				}
				fc.Close()
				var received int
				for c := range got {
					received += len(c)
				}
				// Write 2 was swallowed: the peer sees exactly 2 messages.
				if received != 2*len(msg) {
					t.Errorf("peer received %d bytes, want %d (one dropped write)", received, 2*len(msg))
				}
				if len(fc.Fired()) != 1 {
					t.Errorf("fired = %v, want 1 rule", fc.Fired())
				}
			},
		},
		{
			name: "reset-at-write",
			plan: ResetAfterWrites(2),
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				got := readChunks(peer)
				if _, err := fc.Write(msg); err != nil {
					t.Fatalf("write 1: %v", err)
				}
				_, err := fc.Write(msg)
				if !errors.Is(err, ErrInjectedReset) {
					t.Fatalf("write 2 err = %v, want injected reset", err)
				}
				// Connection is dead both ways.
				if _, err := fc.Write(msg); err == nil {
					t.Error("write after reset succeeded")
				}
				var received int
				for c := range got {
					received += len(c)
				}
				if received != len(msg) {
					t.Errorf("peer received %d bytes, want %d", received, len(msg))
				}
			},
		},
		{
			name: "reset-mid-frame",
			plan: TruncateWrite(1, 4),
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				got := readChunks(peer)
				n, err := fc.Write(msg)
				if !errors.Is(err, ErrInjectedReset) {
					t.Fatalf("err = %v, want injected reset", err)
				}
				if n != 4 {
					t.Errorf("truncated write reported %d bytes, want 4", n)
				}
				var received []byte
				for c := range got {
					received = append(received, c...)
				}
				if string(received) != "0123" {
					t.Errorf("peer received %q, want first 4 bytes only", received)
				}
			},
		},
		{
			name: "delay-spike",
			plan: planOf(FaultRule{Op: OnRead, Nth: 1, Kind: FaultDelay, Delay: 30 * time.Millisecond}),
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				go peer.Write(msg)
				buf := make([]byte, len(msg))
				start := time.Now()
				if _, err := io.ReadFull(fc, buf); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); d < 30*time.Millisecond {
					t.Errorf("read returned after %v, want ≥ 30ms spike", d)
				}
			},
		},
		{
			name: "reset-at-read",
			plan: planOf(FaultRule{Op: OnRead, Nth: 1, Kind: FaultReset}),
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				go peer.Write(msg)
				buf := make([]byte, len(msg))
				_, err := fc.Read(buf)
				if !errors.Is(err, ErrInjectedReset) {
					t.Errorf("read err = %v, want injected reset", err)
				}
			},
		},
		{
			name: "nil-plan-passthrough",
			plan: nil,
			check: func(t *testing.T, fc *FaultyConn, peer net.Conn) {
				got := readChunks(peer)
				for i := 0; i < 4; i++ {
					if _, err := fc.Write(msg); err != nil {
						t.Fatal(err)
					}
				}
				fc.Close()
				var received int
				for c := range got {
					received += len(c)
				}
				if received != 4*len(msg) {
					t.Errorf("passthrough corrupted traffic: %d bytes", received)
				}
				if len(fc.Fired()) != 0 {
					t.Errorf("nil plan fired rules: %v", fc.Fired())
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fc, peer := pipePair(t, tc.plan)
			tc.check(t, fc, peer)
		})
	}
}

func TestFaultRuleFiresOnce(t *testing.T) {
	fc, peer := pipePair(t, DropWrite(1))
	got := readChunks(peer)
	fc.Write([]byte("aa")) // dropped
	fc.Write([]byte("bb")) // passes: the rule is consumed
	fc.Close()
	var received []byte
	for c := range got {
		received = append(received, c...)
	}
	if string(received) != "bb" {
		t.Errorf("received %q, want only the second write", received)
	}
}

func TestFaultyDialerSequencesPlans(t *testing.T) {
	d := &FaultyDialer{
		Base: func() (net.Conn, error) {
			a, b := net.Pipe()
			go func() { io.Copy(io.Discard, b) }()
			return a, nil
		},
		Plans: []*FaultPlan{ResetAfterWrites(1), nil},
	}
	c1, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("conn 1 write err = %v, want injected reset", err)
	}
	c2, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write([]byte("x")); err != nil {
		t.Errorf("conn 2 (clean plan) write err = %v", err)
	}
	c3, err := d.Dial() // past the end of Plans: clean
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Write([]byte("x")); err != nil {
		t.Errorf("conn 3 (no plan) write err = %v", err)
	}
	if d.Dials() != 3 {
		t.Errorf("dials = %d", d.Dials())
	}
	if fired := d.Conn(0).Fired(); len(fired) != 1 {
		t.Errorf("conn 0 fired = %v", fired)
	}
	if d.Conn(1) == nil || len(d.Conn(1).Fired()) != 0 {
		t.Error("conn 1 should exist with no fired rules")
	}
}

// planOf returns a plan of the one rule r.
func planOf(r FaultRule) *FaultPlan { return &FaultPlan{Rules: []FaultRule{r}} }
