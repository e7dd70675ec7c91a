package rmi

import "sync/atomic"

// Pending is an in-flight asynchronous call.
type Pending struct {
	// Done is closed when the call completes.
	Done chan struct{}
	err  error
}

// Err returns the call's outcome; it must be read after Done closes.
func (p *Pending) Err() error { return p.err }

// Go invokes a remote method asynchronously on a new goroutine. The
// reply must not be touched until Done closes. Concurrent Go calls
// pipeline on the shared connection up to MaxInFlight deep.
func (c *Client) Go(method string, args PortData, reply any) *Pending {
	p := &Pending{Done: make(chan struct{})}
	go func() {
		defer close(p.Done)
		p.err = c.Invoke(method, args, reply, false, nil)
	}()
	return p
}

// isDead reports whether c declared its provider dead (every retry and
// reconnect attempt exhausted).
func isDead(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// countReconnects counts c's completed reconnects from outside: it wraps
// c.OnReconnect, which runs once per reconnect that re-handshook, and
// returns the count so far.
func countReconnects(c *Client) func() int {
	var n atomic.Int64
	replay := c.OnReconnect
	c.OnReconnect = func(do func(string, PortData, any) error) error {
		n.Add(1)
		if replay != nil {
			return replay(do)
		}
		return nil
	}
	return func() int { return int(n.Load()) }
}

// Sessions returns a snapshot of the open sessions.
func (s *Server) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}
