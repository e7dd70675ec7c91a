package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Endpoint is one provider replica: a display name and a dial function
// opening a fresh connection to it.
type Endpoint struct {
	Name string
	Dial func() (net.Conn, error)
}

// Status is a point-in-time snapshot of one replica's standing.
type Status struct {
	Name        string
	State       BreakerState
	EWMALatency time.Duration
	ConsecFails int
	Successes   int64
	Failures    int64
}

// Set holds N equivalent provider endpoints for one IP component with a
// breaker and health record per replica. Its Dialer is the failover
// policy: installed as rmi.Client.Redial, it makes every reconnect —
// including the session replay that restores provider state — land on
// the next healthy replica rather than the one that just died.
type Set struct {
	// OnFailover, when non-nil, observes each adoption of a different
	// current replica. It is called without Set locks held.
	OnFailover func(from, to int)

	eps    []Endpoint
	brs    []*Breaker
	health []*Health

	mu        sync.Mutex
	current   int
	failovers int
}

// NewSet builds a replica set over the given endpoints. Replica 0 is
// the initial current replica. A nil clock selects DefaultClock.
func NewSet(cfg BreakerConfig, clock Clock, eps ...Endpoint) (*Set, error) {
	if len(eps) == 0 {
		return nil, errors.New("replica: set needs at least one endpoint")
	}
	s := &Set{eps: eps}
	for range eps {
		s.brs = append(s.brs, NewBreaker(cfg, clock))
		s.health = append(s.health, &Health{})
	}
	return s, nil
}

// Dialer returns the failover dial function, suitable as
// rmi.Client.Redial. Candidates are tried in ring order starting from
// the current replica, skipping replicas whose breaker rejects the
// attempt; if that yields no connection, the skipped replicas are
// probed once each as a last resort, so an open breaker can never
// strand a client whose only live replica is mid-cooldown. The first
// successful dial adopts that replica as current (counted as a failover
// when it changed). The candidate order is a pure function of the
// current index and breaker states, keeping failover deterministic
// under the chaos harness.
func (s *Set) Dialer() func() (net.Conn, error) { return s.dial }

func (s *Set) dial() (net.Conn, error) {
	s.mu.Lock()
	start := s.current
	s.mu.Unlock()
	n := len(s.eps)
	tried := make([]bool, n)
	var dialErrs []error
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := (start + k) % n
			if tried[i] {
				continue
			}
			if pass == 0 && !s.brs[i].Allow() {
				continue
			}
			tried[i] = true
			conn, err := s.eps[i].Dial()
			if err != nil {
				s.brs[i].Failure()
				s.health[i].Observe(0, err)
				dialErrs = append(dialErrs, fmt.Errorf("%s: %w", s.eps[i].Name, err))
				continue
			}
			s.adopt(i)
			return conn, nil
		}
	}
	return nil, fmt.Errorf("replica: all %d replicas unavailable: %w", n, errors.Join(dialErrs...))
}

// adopt makes replica i current, counting a failover when it changed.
func (s *Set) adopt(i int) {
	s.mu.Lock()
	from := s.current
	changed := from != i
	if changed {
		s.current = i
		s.failovers++
	}
	cb := s.OnFailover
	s.mu.Unlock()
	if changed && cb != nil {
		cb(from, i)
	}
}

// ObserveAttempt is the rmi.Client.OnAttempt hook: one completed wire
// attempt, with its measured round-trip time, charged to the current
// replica's health record. A successful round trip also closes the
// replica's breaker — it is the strongest liveness signal available.
// Failed attempts feed health statistics only: breaker penalties belong
// to ObserveEpochFail (one per poisoned epoch), not to every in-flight
// call the epoch took down with it.
func (s *Set) ObserveAttempt(method string, rtt time.Duration, err error) {
	_ = method
	s.mu.Lock()
	i := s.current
	s.mu.Unlock()
	s.health[i].Observe(rtt, err)
	if err == nil {
		s.brs[i].Success()
	}
}

// ObserveEpochFail is the rmi.Client.OnEpochFail hook: one transport
// epoch died on the current replica. The breaker takes exactly one
// failure per epoch, however many calls were in flight.
func (s *Set) ObserveEpochFail(err error) {
	s.mu.Lock()
	i := s.current
	s.mu.Unlock()
	s.brs[i].Failure()
	s.health[i].Observe(0, err)
}

// Current returns the index of the replica currently serving.
func (s *Set) Current() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// Failovers returns how many times the current replica changed.
func (s *Set) Failovers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failovers
}

// Size returns the replica count.
func (s *Set) Size() int { return len(s.eps) }

// StatusOf snapshots replica i.
func (s *Set) StatusOf(i int) Status {
	h := s.health[i]
	ok, fail := h.Counts()
	return Status{
		Name:        s.eps[i].Name,
		State:       s.brs[i].State(),
		EWMALatency: h.EWMALatency(),
		ConsecFails: h.ConsecutiveFailures(),
		Successes:   ok,
		Failures:    fail,
	}
}

// Statuses snapshots every replica in index order.
func (s *Set) Statuses() []Status {
	out := make([]Status, len(s.eps))
	for i := range s.eps {
		out[i] = s.StatusOf(i)
	}
	return out
}
