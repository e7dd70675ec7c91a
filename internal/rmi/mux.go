package rmi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultInFlight is the in-flight call bound used when Client.MaxInFlight
// is zero: deep enough that pipelined batch traffic overlaps WAN round
// trips, small enough that a stalled provider cannot absorb unbounded
// requests. Serial callers behave identically at any depth; depth 1
// reproduces the stop-and-wait transport exactly.
const DefaultInFlight = 8

// pendingCall is one in-flight request on a mux: the completion state
// the reader fills in when the matching response frame arrives.
type pendingCall struct {
	method string
	reply  any
	ack    func() // run by the reader on success, before done closes

	timer *time.Timer // per-call deadline; fires into mux.fail

	// recvd is the response's wire byte volume, written by the reader
	// before it closes done.
	recvd int

	err  error
	done chan struct{}
}

// mux is one transport epoch of a Client: a single authenticated
// connection that callers write their own request frames onto, one at a
// time under a write lock, a reader pump correlating response frames to
// pending calls by frame.ID, and an in-flight bound so N calls can
// pipeline on the one framed stream.
//
// A mux never heals: any transport fault (send/receive error, per-call
// deadline, an unknown response ID) fails the whole epoch, resolving
// every pending call with the fault. The owning Client then builds a
// fresh mux on the next call attempt (reconnect + session replay).
type mux struct {
	c       *Client
	conn    *countingConn
	fr      *binFrameReader
	session string

	wmu sync.Mutex // serializes request frames; guards fw
	fw  *binFrameWriter

	mu       sync.Mutex
	slotFree *sync.Cond // waits for the in-flight bound
	pending  map[uint64]*pendingCall
	active   int // calls holding an in-flight slot
	peak     int // high-water mark of active (observability/tests)
	failed   bool
	failErr  error

	readerDone chan struct{} // closed when the reader pump returns
}

// newMux wraps a freshly handshaken connection and starts its reader
// pump.
func newMux(c *Client, conn *countingConn, fw *binFrameWriter, fr *binFrameReader, session string) *mux {
	m := &mux{
		c:          c,
		conn:       conn,
		fw:         fw,
		fr:         fr,
		session:    session,
		pending:    make(map[uint64]*pendingCall),
		readerDone: make(chan struct{}),
	}
	m.slotFree = sync.NewCond(&m.mu)
	go m.reader()
	return m
}

// broken reports whether the epoch has failed.
func (m *mux) broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// acquire blocks until an in-flight slot is free (or the epoch fails).
// Every successful acquire must be balanced by release — including for
// calls that complete with an error.
func (m *mux) acquire() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.failed && m.active >= m.c.depth() {
		m.slotFree.Wait()
	}
	if m.failed {
		return m.failErr
	}
	m.active++
	if m.active > m.peak {
		m.peak = m.active
	}
	return nil
}

// release returns an in-flight slot. Callers hold the slot through the
// emulated network delay, so at depth 1 queued calls serialize behind
// the full round trip exactly like the stop-and-wait transport.
func (m *mux) release() {
	m.mu.Lock()
	m.active--
	m.slotFree.Signal()
	m.mu.Unlock()
}

// call runs one request on the epoch: it registers the call in the
// pending table, writes the request frame under the write lock, and
// waits for the reader (or a fault) to resolve it. It returns the
// request and response wire sizes.
func (m *mux) call(method string, payload []byte, reply any, ack func()) (sent, recvd int, err error) {
	pc := &pendingCall{
		method: method,
		reply:  reply,
		ack:    ack,
		done:   make(chan struct{}),
	}
	m.mu.Lock()
	if m.failed {
		err := m.failErr
		m.mu.Unlock()
		return 0, 0, fmt.Errorf("rmi: %s: %w", method, err)
	}
	id := m.c.nextCallID()
	if d := m.c.Timeout; d > 0 {
		// The per-call deadline spans the write-lock wait, transmission,
		// and the response. A deadline expiry abandons the whole epoch:
		// the stream is in an undefined state (the response may yet
		// arrive), so the connection cannot be reused — same contract as
		// the stop-and-wait transport. Armed before the call becomes
		// visible to the reader, so the reader's timer.Stop is ordered
		// after it.
		pc.timer = time.AfterFunc(d, func() {
			m.fail(fmt.Errorf("rmi: %s: no response within %v (transport abandoned)", method, d))
		})
	}
	m.pending[id] = pc
	m.mu.Unlock()

	req := frame{Kind: kindRequest, ID: id, Session: m.session, Method: method, Payload: payload}
	m.wmu.Lock()
	err = m.fw.encode(&req)
	if err == nil {
		sent = len(m.fw.buf)
		err = m.fw.flush()
	}
	m.wmu.Unlock()
	if err != nil {
		m.fail(fmt.Errorf("rmi: send %s: %w", method, err))
	}
	<-pc.done
	return sent, pc.recvd, pc.err
}

// replay is the call surface OnReconnect receives: one round trip on an
// epoch no other caller can see yet. No in-flight slot, emulation or
// metering applies — recovery overhead is not part of the workload's
// traffic accounting.
func (m *mux) replay(method string, args PortData, reply any) error {
	payload, err := EncodePayload(args)
	if err != nil {
		return err
	}
	_, _, err = m.call(method, payload, reply, nil)
	return err
}

// reader is the receive pump, the epoch's only goroutine: the sole user
// of the frame decoder once the handshake is done. It correlates each
// response frame to its pending call by ID — responses may complete in
// any order. A frame that matches no pending call means the stream is
// desynchronized (e.g. a stale response from a confused peer): the
// epoch is poisoned so no caller can be handed another call's data.
func (m *mux) reader() {
	defer close(m.readerDone)
	// One response frame for the life of the pump: readFrame resets it,
	// and complete() consumes it synchronously before the next readFrame
	// can overwrite it.
	var resp frame
	for {
		r0 := m.conn.read
		if err := m.fr.readFrame(&resp); err != nil {
			m.fail(fmt.Errorf("rmi: receive: %w", err))
			return
		}
		recvd := m.conn.read - r0
		m.mu.Lock()
		pc, ok := m.pending[resp.ID]
		if ok && resp.Kind == kindResponse {
			delete(m.pending, resp.ID)
		}
		m.mu.Unlock()
		if !ok {
			m.fail(fmt.Errorf("rmi: response id %d matches no in-flight request (stream desynchronized)", resp.ID))
			return
		}
		if resp.Kind != kindResponse {
			// The call stays in the pending table so fail resolves it along
			// with every other in-flight call.
			m.fail(fmt.Errorf("rmi: frame kind %d for in-flight request %d (stream desynchronized)", resp.Kind, resp.ID))
			return
		}
		if pc.timer != nil {
			pc.timer.Stop()
		}
		pc.recvd = int(recvd)
		m.complete(pc, &resp)
	}
}

// complete resolves one answered call: remote errors, payload decode,
// the call's acknowledgement on success, then the caller wake-up. The
// acknowledgement runs here, on the reader, so a reconnect — which waits
// for the old epoch's reader to return — replays session state that
// includes every call the old session answered.
func (m *mux) complete(pc *pendingCall, resp *frame) {
	if resp.Err != "" {
		pc.err = &RemoteError{Method: pc.method, Msg: resp.Err}
	} else if pc.reply != nil {
		if err := Decode(resp.Payload, pc.reply); err != nil {
			// The frame arrived intact; re-executing the method would
			// return the same undecodable payload.
			pc.err = &permanentError{err: err}
		}
	}
	if pc.err == nil && pc.ack != nil {
		pc.ack()
	}
	close(pc.done)
}

// fail poisons the epoch: the first fault wins, the connection closes
// (unblocking the reader and any caller mid-write), and every pending
// call resolves with the fault.
func (m *mux) fail(err error) error {
	m.mu.Lock()
	if m.failed {
		m.mu.Unlock()
		return nil
	}
	m.failed = true
	m.failErr = err
	orphans := m.pending
	m.pending = make(map[uint64]*pendingCall)
	m.slotFree.Broadcast()
	m.mu.Unlock()
	// Report the epoch death to the failover layer exactly once, before
	// resolving the orphans: by the time any caller retries (and the
	// client redials), the replica set has already charged the breaker.
	// Administrative teardowns — client Close, epoch supersession during
	// reconnect — are not replica failures and are filtered out.
	if h := m.c.OnEpochFail; h != nil && !errors.Is(err, errClientClosed) && !errors.Is(err, errSuperseded) {
		h(err)
	}
	closeErr := m.conn.Close()
	for _, pc := range orphans {
		if pc.timer != nil {
			pc.timer.Stop()
		}
		pc.err = fmt.Errorf("rmi: %s: %w", pc.method, err)
		close(pc.done)
	}
	return closeErr
}
