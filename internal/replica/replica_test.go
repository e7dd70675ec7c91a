package replica

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// fakeClock is a deterministic, manually-advanced Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func TestBreakerStateMachine(t *testing.T) {
	fc := &fakeClock{}
	b := NewBreaker(BreakerConfig{FailThreshold: 2, OpenFor: 100 * time.Millisecond}, fc.Now)

	if b.State() != Closed || !b.Allow() {
		t.Fatalf("new breaker: state %v, want closed+allowing", b.State())
	}
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("one failure below threshold tripped the breaker: %v", b.State())
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("threshold failures: state %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt before the cooldown")
	}

	// Cooldown elapses on the fake clock: exactly one probe is admitted.
	fc.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled-down breaker rejected the probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want half-open during probe", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure re-opens immediately; another full cooldown applies.
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatalf("failed probe: state %v, want open+rejecting", b.State())
	}
	fc.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second cooldown rejected the probe")
	}
	b.Success()
	if b.State() != Closed || b.ConsecutiveFailures() != 0 {
		t.Fatalf("successful probe: state %v fails %d, want closed/0", b.State(), b.ConsecutiveFailures())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 3}, (&fakeClock{}).Now)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("streak did not reset on success: %v", b.State())
	}
}

func TestHealthEWMA(t *testing.T) {
	h := &Health{}
	h.Observe(100*time.Millisecond, nil)
	if got := h.EWMALatency(); got != 100*time.Millisecond {
		t.Fatalf("first sample: ewma %v, want the sample itself", got)
	}
	h.Observe(200*time.Millisecond, nil)
	// 0.2*200ms + 0.8*100ms = 120ms.
	if got := h.EWMALatency(); got != 120*time.Millisecond {
		t.Fatalf("ewma %v, want 120ms", got)
	}
	h.Observe(0, errors.New("boom"))
	if h.ConsecutiveFailures() != 1 {
		t.Fatalf("consecutive failures = %d, want 1", h.ConsecutiveFailures())
	}
	if got := h.EWMALatency(); got != 120*time.Millisecond {
		t.Fatalf("failure moved the latency estimate: %v", got)
	}
	h.Observe(120*time.Millisecond, nil)
	if h.ConsecutiveFailures() != 0 {
		t.Fatal("success did not reset the failure streak")
	}
	ok, fail := h.Counts()
	if ok != 3 || fail != 1 {
		t.Fatalf("counts = (%d, %d), want (3, 1)", ok, fail)
	}
}

// pipeEndpoint returns an endpoint whose dials succeed with a net.Pipe
// (peer drained and closed by cleanup) and a counter of dials taken.
func pipeEndpoint(t *testing.T, name string) (Endpoint, *int) {
	t.Helper()
	dials := new(int)
	var mu sync.Mutex
	return Endpoint{
		Name: name,
		Dial: func() (net.Conn, error) {
			mu.Lock()
			*dials++
			mu.Unlock()
			a, b := net.Pipe()
			go func() { _, _ = io.Copy(io.Discard, b) }()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, nil
		},
	}, dials
}

func refusingEndpoint(name string) (Endpoint, *int) {
	dials := new(int)
	var mu sync.Mutex
	return Endpoint{
		Name: name,
		Dial: func() (net.Conn, error) {
			mu.Lock()
			*dials++
			mu.Unlock()
			return nil, errors.New("connection refused")
		},
	}, dials
}

func TestSetFailsOverInRingOrder(t *testing.T) {
	leakcheck.Check(t)
	fc := &fakeClock{}
	dead0, d0 := refusingEndpoint("r0")
	dead1, d1 := refusingEndpoint("r1")
	live, d2 := pipeEndpoint(t, "r2")
	s, err := NewSet(BreakerConfig{FailThreshold: 1, OpenFor: time.Hour}, fc.Now, dead0, dead1, live)
	if err != nil {
		t.Fatal(err)
	}
	var hops [][2]int
	s.OnFailover = func(from, to int) { hops = append(hops, [2]int{from, to}) }

	conn, err := s.Dialer()()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	s.mu.Lock()
	current := s.current
	s.mu.Unlock()
	if current != 2 || s.Failovers() != 1 {
		t.Fatalf("current %d failovers %d, want replica 2 after one failover", current, s.Failovers())
	}
	if len(hops) != 1 || hops[0] != [2]int{0, 2} {
		t.Fatalf("failover hops = %v, want one hop 0→2", hops)
	}
	if *d0 != 1 || *d1 != 1 || *d2 != 1 {
		t.Fatalf("dials = %d/%d/%d, want one each in ring order", *d0, *d1, *d2)
	}

	// The dead replicas' breakers opened (threshold 1, cooldown 1h on a
	// frozen clock): the next dial goes straight to the live replica.
	conn, err = s.Dialer()()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if *d0 != 1 || *d1 != 1 {
		t.Fatalf("open-breaker replicas redialed: %d/%d", *d0, *d1)
	}
	if s.Failovers() != 1 {
		t.Fatalf("redial of the same healthy replica counted as a failover: %d", s.Failovers())
	}
}

func TestSetLastResortProbesOpenBreakers(t *testing.T) {
	leakcheck.Check(t)
	fc := &fakeClock{}
	live, dials := pipeEndpoint(t, "only")
	s, err := NewSet(BreakerConfig{FailThreshold: 1, OpenFor: time.Hour}, fc.Now, live)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the only replica's breaker: a frozen clock means the
	// cooldown never elapses, so only the last-resort pass can reach it.
	s.ObserveEpochFail(errors.New("epoch died"))
	if s.brs[0].State() != Open {
		t.Fatalf("breaker state %v, want open", s.brs[0].State())
	}
	conn, err := s.Dialer()()
	if err != nil {
		t.Fatalf("last-resort probe did not run: %v", err)
	}
	conn.Close()
	if *dials != 1 {
		t.Fatalf("dials = %d, want exactly one last-resort probe", *dials)
	}
}

func TestSetAllReplicasDown(t *testing.T) {
	leakcheck.Check(t)
	dead0, _ := refusingEndpoint("r0")
	dead1, _ := refusingEndpoint("r1")
	s, err := NewSet(BreakerConfig{FailThreshold: 1, OpenFor: time.Hour}, (&fakeClock{}).Now, dead0, dead1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dialer()(); err == nil {
		t.Fatal("dial over an all-dead set succeeded")
	}
	sts := s.Statuses()
	if len(sts) != 2 {
		t.Fatalf("statuses = %d entries", len(sts))
	}
	for i, st := range sts {
		if st.State != Open || st.Failures == 0 {
			t.Errorf("replica %d status = %+v, want open with failures recorded", i, st)
		}
	}
}

func TestObserveAttemptFeedsCurrentReplica(t *testing.T) {
	live, _ := pipeEndpoint(t, "r0")
	s, err := NewSet(BreakerConfig{}, (&fakeClock{}).Now, live)
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveAttempt("power.batch", 80*time.Millisecond, nil)
	s.ObserveAttempt("power.batch", 0, errors.New("deadline"))
	st := s.StatusOf(0)
	if st.EWMALatency != 80*time.Millisecond {
		t.Fatalf("ewma %v, want 80ms", st.EWMALatency)
	}
	if st.Successes != 1 || st.Failures != 1 {
		t.Fatalf("counts %d/%d, want 1/1", st.Successes, st.Failures)
	}
	// A lone attempt failure is not a breaker penalty (epochs are).
	if st.State != Closed {
		t.Fatalf("state %v, want closed", st.State)
	}
	s.ObserveEpochFail(errors.New("epoch died"))
	s.ObserveEpochFail(errors.New("epoch died"))
	s.ObserveEpochFail(errors.New("epoch died"))
	if s.StatusOf(0).State != Open {
		t.Fatalf("three epoch failures left the breaker %v", s.StatusOf(0).State)
	}
	// A live round trip closes it again.
	s.ObserveAttempt("fees", 10*time.Millisecond, nil)
	if s.StatusOf(0).State != Closed {
		t.Fatalf("successful attempt left the breaker %v", s.StatusOf(0).State)
	}
}

func TestNewSetRejectsEmpty(t *testing.T) {
	if _, err := NewSet(BreakerConfig{}, nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

// ConsecutiveFailures returns the current consecutive-failure count.
func (b *Breaker) ConsecutiveFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

// Failovers returns how many times the current replica changed.
func (s *Set) Failovers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failovers
}
