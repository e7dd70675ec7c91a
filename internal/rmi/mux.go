package rmi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInFlight is the in-flight call bound used when Client.MaxInFlight
// is zero: deep enough that pipelined batch traffic overlaps WAN round
// trips, small enough that a stalled provider cannot absorb unbounded
// requests. Serial callers behave identically at any depth; depth 1
// reproduces the stop-and-wait transport exactly.
const DefaultInFlight = 8

// pendingCall is one in-flight request on a mux: the encoded frame
// waiting in (or drained from) the send queue, and the completion state
// the reader fills in when the matching response frame arrives.
type pendingCall struct {
	id     uint64
	method string
	frame  frame // request frame, embedded so a call costs one allocation
	reply  any
	ack    func() // run by the reader on success, before done closes

	timer *time.Timer // per-call deadline; fires into mux.fail

	// sent/recvd are the call's wire byte volumes. They are written by the
	// writer and reader pumps respectively and read by the caller after
	// done closes; atomics give the cross-goroutine edge the race detector
	// wants without sharing the mux lock.
	sent, recvd atomic.Int64

	err  error
	done chan struct{}
}

// mux is one transport epoch of a Client: a single authenticated
// connection with a dedicated writer pump draining a FIFO send queue, a
// reader pump correlating response frames to pending calls by frame.ID,
// and an in-flight bound so N calls can pipeline on the one framed
// stream.
//
// A mux never heals: any transport fault (send/receive error, per-call
// deadline, an unknown response ID) fails the whole epoch, resolving
// every pending call with the fault. The owning Client then builds a
// fresh mux on the next call attempt (reconnect + session replay).
type mux struct {
	c       *Client
	conn    *countingConn
	fw      *binFrameWriter
	fr      *binFrameReader
	session string

	mu       sync.Mutex
	slotFree *sync.Cond // waits for the in-flight bound
	sendRdy  *sync.Cond // wakes the writer pump
	queue    []*pendingCall
	pending  map[uint64]*pendingCall
	active   int // calls holding an in-flight slot
	peak     int // high-water mark of active (observability/tests)
	failed   bool
	failErr  error

	done       chan struct{} // closed on fail; read by slot waiters and pumps
	readerDone chan struct{} // closed when the reader pump returns
}

// newMux wraps a freshly handshaken connection. The pumps are not
// started: reconnect runs the session replay serially on the bare
// frame codec first (see Client.reconnectLocked), then calls start.
func newMux(c *Client, conn *countingConn, fw *binFrameWriter, fr *binFrameReader, session string) *mux {
	m := &mux{
		c:          c,
		conn:       conn,
		fw:         fw,
		fr:         fr,
		session:    session,
		pending:    make(map[uint64]*pendingCall),
		done:       make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	m.slotFree = sync.NewCond(&m.mu)
	m.sendRdy = sync.NewCond(&m.mu)
	return m
}

// start launches the writer and reader pumps.
func (m *mux) start() {
	go m.writer()
	go m.reader()
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

// enqueue registers a call in the pending table and appends its frame to
// the send queue. The caller already holds an in-flight slot. Queue
// position is the call's wire order.
func (m *mux) enqueue(method string, payload []byte, reply any, ack func()) (*pendingCall, error) {
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
		return nil, fmt.Errorf("rmi: %s: %w", method, err)
	}
	pc.id = m.c.nextCallID()
	pc.frame = frame{Kind: kindRequest, ID: pc.id, Session: m.session, Method: method, Payload: payload}
	if d := m.c.Timeout; d > 0 {
		// The per-call deadline spans queue wait, transmission, and the
		// response. A deadline expiry abandons the whole epoch: the
		// stream is in an undefined state (the response may yet arrive),
		// so the connection cannot be reused — same contract as the
		// stop-and-wait transport. Armed before the call becomes visible
		// to the pumps, so the reader's timer.Stop is ordered after it.
		pc.timer = time.AfterFunc(d, func() {
			m.fail(fmt.Errorf("rmi: %s: no response within %v (transport abandoned)", method, d))
		})
	}
	m.pending[pc.id] = pc
	m.queue = append(m.queue, pc)
	m.sendRdy.Signal()
	m.mu.Unlock()
	return pc, nil
}

// writer is the send pump: the sole goroutine touching the frame
// encoder after start, draining the queue FIFO so wire order equals
// enqueue order.
func (m *mux) writer() {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.failed {
			m.sendRdy.Wait()
		}
		if m.failed {
			m.mu.Unlock()
			return
		}
		pc := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()

		if err := m.fw.encode(&pc.frame); err != nil {
			m.fail(fmt.Errorf("rmi: send %s: %w", pc.method, err))
			return
		}
		// Recorded before the write: once the request is on the wire
		// the response can complete the call, and the caller reads sent
		// as soon as done closes.
		pc.sent.Store(int64(len(m.fw.buf)))
		if err := m.fw.flush(); err != nil {
			m.fail(fmt.Errorf("rmi: send %s: %w", pc.method, err))
			return
		}
	}
}

// reader is the receive pump: the sole goroutine touching the frame
// decoder after start. It correlates each response frame to its pending call by ID —
// responses may complete in any order. A frame that matches no pending
// call means the stream is desynchronized (e.g. a stale response from a
// confused peer): the epoch is poisoned so no caller can be handed
// another call's data.
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
		pc.recvd.Store(recvd)
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
// (unblocking both pumps), and every pending call — queued or on the
// wire — resolves with the fault.
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
	m.queue = nil
	close(m.done)
	m.slotFree.Broadcast()
	m.sendRdy.Broadcast()
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

// directCall runs one serial request/response round trip on the bare
// connection, before the pumps have started — the restricted surface
// session replay uses. No emulation or metering applies:
// recovery overhead is not part of the workload's traffic accounting.
func (m *mux) directCall(method string, args PortData, reply any) error {
	payload, err := EncodePayload(args)
	if err != nil {
		return err
	}
	id := m.c.nextCallID()
	req := frame{Kind: kindRequest, ID: id, Session: m.session, Method: method, Payload: payload}
	if m.c.Timeout > 0 {
		_ = m.conn.SetDeadline(time.Now().Add(m.c.Timeout))
	}
	if err := m.fw.writeFrame(&req); err != nil {
		return fmt.Errorf("rmi: send %s: %w", method, err)
	}
	var resp frame
	if err := m.fr.readFrame(&resp); err != nil {
		return fmt.Errorf("rmi: receive %s: %w", method, err)
	}
	if m.c.Timeout > 0 {
		_ = m.conn.SetDeadline(time.Time{})
	}
	if resp.ID != id {
		return fmt.Errorf("rmi: %s: response id %d for request %d (stream desynchronized)", method, resp.ID, id)
	}
	if resp.Err != "" {
		return &RemoteError{Method: method, Msg: resp.Err}
	}
	if reply == nil {
		return nil
	}
	if err := Decode(resp.Payload, reply); err != nil {
		return &permanentError{err: err}
	}
	return nil
}
