// Package replica provides client-side provider replication: a set of
// equivalent provider endpoints for one IP component, with per-replica
// health accounting (EWMA latency, consecutive failures), a three-state
// circuit breaker per replica, and a failover dialer that re-routes a
// poisoned transport epoch — and the session replay it triggers — to
// the next healthy replica instead of hammering a dead one.
//
// The package sits below internal/core and plugs into internal/rmi
// through three seams:
//
//   - Set.Dialer becomes rmi.Client.Redial, so every reconnect (and the
//     session replay that re-establishes provider-side state) lands on a
//     breaker-approved replica;
//   - Set.ObserveEpochFail becomes rmi.Client.OnEpochFail, charging each
//     poisoned epoch to the replica that served it;
//   - Set.ObserveAttempt becomes rmi.Client.OnAttempt, feeding measured
//     per-call round-trip times into the EWMA.
//
// Determinism: nothing in this package calls the wall clock. The breaker
// takes an injectable Clock; DefaultClock references the time.Now
// function as a VALUE, so production gets real time while tests and the
// chaos harness drive state transitions with a fake clock — which is how
// the package stays inside the simdeterminism lint scope.
package replica

import (
	"sync"
	"time"
)

// Clock supplies the breaker's notion of time. It is injected, never
// read from the environment inside breaker logic, so breaker state
// transitions are fully deterministic under test.
type Clock func() time.Time

// DefaultClock is the production clock. Assigning the time.Now function
// value (not calling it) keeps kernel code free of wall-clock reads.
var DefaultClock Clock = time.Now

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// Closed: the replica is presumed healthy; attempts flow through.
	Closed BreakerState = iota
	// Open: the replica recently failed; attempts are rejected until
	// the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed; exactly one probe attempt is
	// admitted to test the replica before trusting it again.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Breaker defaults, used when BreakerConfig fields are zero.
const (
	DefaultFailThreshold = 3
	DefaultOpenFor       = 500 * time.Millisecond
)

// BreakerConfig parameterizes one replica's circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that trips a
	// closed breaker open. Zero selects DefaultFailThreshold.
	FailThreshold int
	// OpenFor is how long an open breaker rejects attempts before
	// half-opening for a probe. Zero selects DefaultOpenFor.
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultOpenFor
	}
	return c
}

// Breaker is a three-state circuit breaker: closed → open after
// FailThreshold consecutive failures, open → half-open after OpenFor on
// the injected clock, half-open → closed on a successful probe or back
// to open on a failed one. Half-open admits exactly one outstanding
// probe at a time.
type Breaker struct {
	cfg   BreakerConfig
	clock Clock

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures
	openedAt time.Time
	probing  bool // a half-open probe is outstanding
}

// NewBreaker builds a closed breaker. A nil clock selects DefaultClock.
func NewBreaker(cfg BreakerConfig, clock Clock) *Breaker {
	if clock == nil {
		clock = DefaultClock
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

// Allow reports whether an attempt may be routed through this replica.
// An open breaker half-opens once OpenFor has elapsed, admitting the
// calling attempt as the probe; further attempts are rejected until the
// probe reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed round trip: the breaker closes and the
// consecutive-failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probing = false
}

// Failure reports a failed attempt (a refused dial or a poisoned
// transport epoch). A half-open probe failure re-opens immediately; a
// closed breaker opens once FailThreshold consecutive failures
// accumulate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == HalfOpen || b.fails >= b.cfg.FailThreshold {
		b.state = Open
		b.openedAt = b.clock()
		b.probing = false
	}
}

// State returns the stored state (Open does not lazily half-open here;
// only Allow consumes probe slots).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
