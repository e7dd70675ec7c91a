package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is the error surfaced by a scripted connection reset
// or truncation. Transports treat it like any peer reset.
var ErrInjectedReset = errors.New("netsim: injected connection reset")

// ErrInjectedPartial is the error surfaced by a scripted partial write:
// some bytes reached the peer, the rest never will, and the connection
// is still open — the stream is torn mid-frame without a socket error.
var ErrInjectedPartial = errors.New("netsim: injected partial write")

// FaultOp selects which transport operation a fault rule triggers on.
type FaultOp int

// The two operations a FaultyConn can intercept.
const (
	// OnWrite fires on the Nth Write call of the connection.
	OnWrite FaultOp = iota
	// OnRead fires on the Nth Read call of the connection.
	OnRead
)

func (o FaultOp) String() string {
	if o == OnRead {
		return "read"
	}
	return "write"
}

// FaultKind is the scripted failure mode.
type FaultKind int

// The failure modes of the paper's unreliable-Internet setting, made
// deterministic so every client failure path is unit-testable.
const (
	// FaultDrop silently swallows a write: the caller sees success but no
	// bytes reach the peer, which then hangs awaiting the frame — the
	// classic lost-datagram path that only a deadline can detect.
	// On a read, Drop degenerates to Reset.
	FaultDrop FaultKind = iota
	// FaultReset closes the connection before performing the operation,
	// surfacing ErrInjectedReset — a mid-call connection kill.
	FaultReset
	// FaultTruncate performs only Keep bytes of a write, then closes the
	// connection — a reset in the middle of a frame.
	FaultTruncate
	// FaultDelay sleeps Delay before performing the operation — a
	// latency spike (expired deadlines without connection loss).
	FaultDelay
	// FaultPartial performs only Keep bytes of a write and reports
	// ErrInjectedPartial with the short count, but leaves the connection
	// OPEN — the torn-write case a codec must treat as fatal for the
	// stream without the comfort of a closed socket. On a read it
	// degenerates to a legal 1-byte short read (streams may always
	// return fewer bytes than asked).
	FaultPartial
	// FaultSlowDrip performs the operation one byte at a time, sleeping
	// Delay between bytes — a pathologically slow peer that stays
	// protocol-correct. Writes drip the whole buffer; reads return one
	// byte per call after the delay.
	FaultSlowDrip
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultDelay:
		return "delay"
	case FaultPartial:
		return "partial"
	case FaultSlowDrip:
		return "slow-drip"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultRule scripts one failure at a deterministic operation count.
type FaultRule struct {
	// Op is the operation class the rule watches.
	Op FaultOp
	// Nth is the 1-based operation index (within Op's counter) at which
	// the fault fires. Each rule fires at most once.
	Nth int
	// Kind is the failure mode.
	Kind FaultKind
	// Delay is the injected latency for FaultDelay.
	Delay time.Duration
	// Keep is the number of bytes actually written for FaultTruncate.
	Keep int
}

func (r FaultRule) String() string {
	return fmt.Sprintf("%s@%s#%d", r.Kind, r.Op, r.Nth)
}

// FaultPlan is a deterministic failure script for one connection: a set
// of rules keyed to operation counts, so tests exercise drops, resets,
// truncations, and delay spikes without a real network.
type FaultPlan struct {
	Rules []FaultRule
}

// DropWrite returns a plan swallowing the nth write.
//
// Used only by tests: TestNewClientHonoursConnDeadline,
// TestDroppedRequestTimesOutAndRetries, TestFaultPlansTable.
func DropWrite(n int) *FaultPlan {
	return &FaultPlan{Rules: []FaultRule{{Op: OnWrite, Nth: n, Kind: FaultDrop}}}
}

// ResetAfterWrites returns a plan killing the connection at the nth write.
func ResetAfterWrites(n int) *FaultPlan {
	return &FaultPlan{Rules: []FaultRule{{Op: OnWrite, Nth: n, Kind: FaultReset}}}
}

// TruncateWrite returns a plan cutting the nth write after keep bytes and
// resetting — a reset mid-frame.
//
// Used only by tests: TestTruncatedFrameRecovered, TestFaultPlansTable.
func TruncateWrite(n, keep int) *FaultPlan {
	return &FaultPlan{Rules: []FaultRule{{Op: OnWrite, Nth: n, Kind: FaultTruncate, Keep: keep}}}
}

// SlowDripWrite returns a plan dripping the nth write byte-at-a-time
// with perByte between bytes.
func SlowDripWrite(n int, perByte time.Duration) *FaultPlan {
	return &FaultPlan{Rules: []FaultRule{{Op: OnWrite, Nth: n, Kind: FaultSlowDrip, Delay: perByte}}}
}

// Wrap returns conn with the plan applied. A nil plan returns a
// FaultyConn that never fires (a clean passthrough).
func (p *FaultPlan) Wrap(conn net.Conn) *FaultyConn {
	fc := &FaultyConn{Conn: conn}
	if p != nil {
		fc.rules = append(fc.rules, p.Rules...)
	}
	return fc
}

// FaultyConn wraps a net.Conn and applies a FaultPlan at scripted
// operation counts. It is safe for the usual one-reader/one-writer
// concurrent connection use.
type FaultyConn struct {
	net.Conn

	mu     sync.Mutex
	rules  []FaultRule
	reads  int
	writes int
	fired  []FaultRule
}

// Fired returns the rules that have triggered so far, in firing order.
//
// Used only by tests: TestFaultedRunMatchesFaultFree,
// TestFaultedTimingRunMatchesFaultFree, TestRetryHealsConnectionReset,
// TestMidPipelineDisconnectHealsEveryCall,
// TestNewClientHonoursConnDeadline, TestFaultPlansTable.
func (c *FaultyConn) Fired() []FaultRule {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FaultRule(nil), c.fired...)
}

// match consumes and returns the rule firing at this operation, if any.
func (c *FaultyConn) match(op FaultOp, nth int) (FaultRule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.rules {
		if r.Op == op && r.Nth == nth {
			c.rules = append(c.rules[:i], c.rules[i+1:]...)
			c.fired = append(c.fired, r)
			return r, true
		}
	}
	return FaultRule{}, false
}

func (c *FaultyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	c.mu.Unlock()
	r, ok := c.match(OnWrite, n)
	if !ok {
		return c.Conn.Write(p)
	}
	switch r.Kind {
	case FaultDrop:
		// Pretend success; the peer never sees the bytes.
		return len(p), nil
	case FaultReset:
		c.Conn.Close()
		return 0, fmt.Errorf("write %v: %w", r, ErrInjectedReset)
	case FaultTruncate:
		keep := r.Keep
		if keep > len(p) {
			keep = len(p)
		}
		if keep > 0 {
			c.Conn.Write(p[:keep])
		}
		c.Conn.Close()
		return keep, fmt.Errorf("write %v: %w", r, ErrInjectedReset)
	case FaultDelay:
		time.Sleep(r.Delay)
		return c.Conn.Write(p)
	case FaultPartial:
		keep := r.Keep
		if keep > len(p) {
			keep = len(p)
		}
		n := 0
		if keep > 0 {
			n, _ = c.Conn.Write(p[:keep])
		}
		return n, fmt.Errorf("write %v: %w", r, ErrInjectedPartial)
	case FaultSlowDrip:
		for i := range p {
			if _, err := c.Conn.Write(p[i : i+1]); err != nil {
				return i, err
			}
			if r.Delay > 0 {
				time.Sleep(r.Delay)
			}
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *FaultyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	n := c.reads
	c.mu.Unlock()
	r, ok := c.match(OnRead, n)
	if !ok {
		return c.Conn.Read(p)
	}
	switch r.Kind {
	case FaultDelay:
		time.Sleep(r.Delay)
		return c.Conn.Read(p)
	case FaultPartial, FaultSlowDrip:
		// A legal short read: one byte, after the drip delay.
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		if len(p) == 0 {
			return c.Conn.Read(p)
		}
		return c.Conn.Read(p[:1])
	default: // Drop, Reset, Truncate all collapse to a reset on reads.
		c.Conn.Close()
		return 0, fmt.Errorf("read %v: %w", r, ErrInjectedReset)
	}
}

// FaultyDialer scripts a sequence of fault plans across successive
// connections: the i-th successful Dial is wrapped with Plans[i] (nil —
// or running past the end of Plans — means a clean connection). It is
// the reconnect-test harness: "the first connection dies at write 7,
// the second is healthy".
type FaultyDialer struct {
	// Base opens the underlying transport.
	Base func() (net.Conn, error)
	// Plans maps connection index to failure script.
	Plans []*FaultPlan

	mu    sync.Mutex
	dials int
	conns []*FaultyConn
}

// Dial opens the next connection with its scripted plan applied.
// Used only by tests: TestProviderDeclaredDead, TestFaultyDialerSequencesPlans.
func (d *FaultyDialer) Dial() (net.Conn, error) {
	conn, err := d.Base()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	var plan *FaultPlan
	if d.dials < len(d.Plans) {
		plan = d.Plans[d.dials]
	}
	d.dials++
	fc := plan.Wrap(conn)
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

// Dials returns how many connections have been opened.
//
// Used only by tests: TestFaultedRunMatchesFaultFree,
// TestFaultedTimingRunMatchesFaultFree,
// TestFaultedBindReplaysAcrossConcurrentReconnect,
// TestRetryHealsConnectionReset, TestAckRunsBeforeConcurrentReconnect,
// TestFaultyDialerSequencesPlans.
func (d *FaultyDialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// Conn returns the i-th opened connection (nil if not yet opened), so
// tests can inspect which rules fired.
// Used only by tests: TestRetryHealsConnectionReset, TestFaultedRunMatchesFaultFree.
func (d *FaultyDialer) Conn(i int) *FaultyConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.conns) {
		return nil
	}
	return d.conns[i]
}
