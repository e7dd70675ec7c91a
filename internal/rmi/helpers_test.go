package rmi

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

// reconnectCount returns how many automatic reconnects c completed.
func reconnectCount(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// peakInFlight returns the high-water mark of concurrently in-flight
// calls on c's current transport epoch (it resets on reconnect).
func peakInFlight(c *Client) int {
	c.mu.Lock()
	tr := c.tr
	c.mu.Unlock()
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.peak
}
