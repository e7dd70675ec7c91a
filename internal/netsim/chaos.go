package netsim

import (
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync"
	"time"
)

// ErrChaosPartition is the dial error a partitioned replica surfaces.
var ErrChaosPartition = errors.New("netsim: chaos partition: dial refused")

// ChaosKind enumerates the per-replica failure scenarios the chaos
// harness scripts. Every scenario is deterministic: given the same seed
// the same replicas fail the same way at the same operation counts.
type ChaosKind int

const (
	// ChaosNone leaves the replica perfectly healthy (the guaranteed
	// survivor every schedule keeps).
	ChaosNone ChaosKind = iota
	// ChaosKill resets the first connection mid-stream; every later
	// dial is refused — a crashed replica that stays down.
	ChaosKill
	// ChaosPartition refuses every dial from the start — a replica on
	// the wrong side of a network split.
	ChaosPartition
	// ChaosSlowDrip keeps the replica alive but drips early writes
	// byte-at-a-time — a pathologically slow but correct peer.
	ChaosSlowDrip
	// ChaosFlap resets the first connection mid-stream but accepts
	// later dials cleanly — a transient crash with recovery.
	ChaosFlap
)

func (k ChaosKind) String() string {
	switch k {
	case ChaosNone:
		return "none"
	case ChaosKill:
		return "kill"
	case ChaosPartition:
		return "partition"
	case ChaosSlowDrip:
		return "slow-drip"
	case ChaosFlap:
		return "flap"
	}
	return fmt.Sprintf("ChaosKind(%d)", int(k))
}

// ReplicaScript is the scripted behavior of one replica across the
// lifetime of a run.
type ReplicaScript struct {
	// Kind is the scenario, for reporting.
	Kind ChaosKind
	// Plan is the fault plan wrapped onto the replica's first
	// connection (nil = clean).
	Plan *FaultPlan
	// RefuseFrom is the 0-based dial index from which dials are
	// refused with ErrChaosPartition; -1 never refuses.
	RefuseFrom int
}

// ChaosSchedule is a seeded, deterministic fault schedule across a
// replica set: one script per replica, with one designated replica left
// untouched so the standing invariant "bit-identical results while at
// least one replica stays healthy" is testable at every seed. Dial
// counts are tracked per replica so the same schedule instance must not
// be shared between runs — derive a fresh one per run from the seed.
type ChaosSchedule struct {
	Scripts []ReplicaScript
	Healthy int // index of the guaranteed-healthy replica

	mu    sync.Mutex
	dials []int
}

// ScriptedSchedule builds a schedule from explicit per-replica scripts —
// the constructor for hand-written scenarios; NewChaosSchedule derives
// seeded random ones. healthy is the guaranteed-healthy index (-1 if no
// replica is).
func ScriptedSchedule(healthy int, scripts ...ReplicaScript) *ChaosSchedule {
	return &ChaosSchedule{Scripts: scripts, Healthy: healthy, dials: make([]int, len(scripts))}
}

// NewChaosSchedule derives the schedule for n replicas from seed,
// keeping replica (seed mod n) healthy and scripting a seeded-random
// scenario for every other replica. Faulty scenarios are drawn from
// {kill, partition, slow-drip, flap} with seeded parameters (reset
// write counts 3..12, drip delays ≤ 50µs on early writes).
func NewChaosSchedule(seed uint64, n int) *ChaosSchedule {
	r := mrand.New(mrand.NewPCG(seed, 0xc4a05))
	cs := &ChaosSchedule{
		Scripts: make([]ReplicaScript, n),
		Healthy: int(seed % uint64(n)),
		dials:   make([]int, n),
	}
	for i := range cs.Scripts {
		if i == cs.Healthy {
			cs.Scripts[i] = ReplicaScript{Kind: ChaosNone, RefuseFrom: -1}
			continue
		}
		switch kind := ChaosKind(1 + r.IntN(4)); kind {
		case ChaosKill:
			cs.Scripts[i] = ReplicaScript{
				Kind:       ChaosKill,
				Plan:       ResetAfterWrites(3 + r.IntN(10)),
				RefuseFrom: 1,
			}
		case ChaosPartition:
			cs.Scripts[i] = ReplicaScript{Kind: ChaosPartition, RefuseFrom: 0}
		case ChaosSlowDrip:
			plan := SlowDripWrite(2+r.IntN(4), time.Duration(10+r.IntN(40))*time.Microsecond)
			cs.Scripts[i] = ReplicaScript{Kind: ChaosSlowDrip, Plan: plan, RefuseFrom: -1}
		case ChaosFlap:
			cs.Scripts[i] = ReplicaScript{
				Kind:       ChaosFlap,
				Plan:       ResetAfterWrites(3 + r.IntN(10)),
				RefuseFrom: -1,
			}
		}
	}
	return cs
}

// Dialer wraps replica i's base dialer with its script: refused dial
// indexes fail with ErrChaosPartition, the first successful connection
// carries the script's fault plan, later connections are clean (the
// flap recovery path).
// Used only by tests: TestChaosSweepBitIdentical, TestChaosFailoverObservable.
func (cs *ChaosSchedule) Dialer(i int, base func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		cs.mu.Lock()
		idx := cs.dials[i]
		cs.dials[i]++
		s := cs.Scripts[i]
		cs.mu.Unlock()
		if s.RefuseFrom >= 0 && idx >= s.RefuseFrom {
			return nil, fmt.Errorf("replica %d (%s) dial %d: %w", i, s.Kind, idx, ErrChaosPartition)
		}
		conn, err := base()
		if err != nil {
			return nil, err
		}
		if idx == 0 && s.Plan != nil {
			return s.Plan.Wrap(conn), nil
		}
		return conn, nil
	}
}

// AllDeadSchedule scripts every replica dead — kills the first
// connection of each and refuses all redials — for the degradation half
// of the invariant: the run must end in explicit, reported degradation,
// never a hang or silently partial results.
func AllDeadSchedule(seed uint64, n int) *ChaosSchedule {
	r := mrand.New(mrand.NewPCG(seed, 0xdead))
	cs := &ChaosSchedule{
		Scripts: make([]ReplicaScript, n),
		Healthy: -1,
		dials:   make([]int, n),
	}
	for i := range cs.Scripts {
		if r.IntN(2) == 0 {
			cs.Scripts[i] = ReplicaScript{Kind: ChaosPartition, RefuseFrom: 0}
		} else {
			cs.Scripts[i] = ReplicaScript{
				Kind:       ChaosKill,
				Plan:       ResetAfterWrites(1 + r.IntN(6)),
				RefuseFrom: 1,
			}
		}
	}
	return cs
}
