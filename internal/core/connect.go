package core

import (
	"net"
	"time"

	"repro/internal/iplib"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
)

// Connection is one authenticated client session with a provider, plus
// its network accounting.
type Connection struct {
	Client *iplib.IPClient
	Meter  *netsim.Meter
	close  func() error
}

// Close tears the session down and reports any transport teardown
// failure (already-dead links close cleanly).
func (c *Connection) Close() error {
	if c.close != nil {
		return c.close()
	}
	return nil
}

// Resilience bundles the transport-resilience knobs of a provider
// session: per-call deadlines, backoff retry for idempotent calls, and
// session recovery (automatic reconnect with session replay).
type Resilience struct {
	// Timeout bounds each call attempt and reconnect handshake.
	Timeout time.Duration
	// Retry is the backoff policy for idempotent calls.
	Retry rmi.RetryPolicy
	// Recover arms session replay: after a reconnect, the journaled
	// binds and each estimator's pattern history are replayed so results
	// match a fault-free run.
	Recover bool
}

// DefaultResilience returns production-shaped settings: 2s deadlines,
// four attempts, full session recovery.
func DefaultResilience() Resilience {
	return Resilience{Timeout: 2 * time.Second, Retry: rmi.DefaultRetry, Recover: true}
}

// Harden applies the resilience settings to the session's RPC client.
func (c *Connection) Harden(r Resilience) {
	c.Client.RPC.Timeout = r.Timeout
	c.Client.RPC.Retry = r.Retry
	if r.Recover {
		c.Client.EnableRecovery()
	}
}

// PipeDialer returns a dial function that opens an in-process pipe to
// the provider's server — the loopback transport of the performance
// study, also usable as a redial target for reconnect tests.
func PipeDialer(p *provider.Provider) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go p.Server.ServeConn(a)
		return b, nil
	}
}

// ConnectInProcess wires a client to a provider over an in-process pipe,
// running the full wire protocol (handshake, frame codec, marshalling
// policy) with the given emulated network profile. This is
// the deployment the performance study uses: one host, real protocol,
// emulated transfer delays.
func ConnectInProcess(p *provider.Provider, clientName string, profile netsim.Profile) (*Connection, error) {
	return ConnectVia(p, clientName, profile, PipeDialer(p))
}

// ConnectVia wires a client to a provider through an arbitrary dial
// function — fault-injection tests interpose netsim.FaultyDialer here.
// The dialer is also installed as the client's Redial, so a broken
// connection heals on the next call (session state is re-established
// only when recovery is armed via Harden).
func ConnectVia(p *provider.Provider, clientName string, profile netsim.Profile, dial func() (net.Conn, error)) (*Connection, error) {
	key, err := security.NewKey()
	if err != nil {
		return nil, err
	}
	p.Authorize(clientName, key)
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	rpc, err := rmi.NewClient(conn, clientName, key)
	if err != nil {
		return nil, err
	}
	rpc.Redial = dial
	meter := &netsim.Meter{}
	rpc.Profile = profile
	rpc.Meter = meter
	return &Connection{
		Client: iplib.NewIPClient(rpc),
		Meter:  meter,
		close:  rpc.Close,
	}, nil
}
