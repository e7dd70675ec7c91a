package netsim

import (
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync/atomic"
	"time"
)

// ErrChaosPartition is the dial error a partitioned or killed provider
// surfaces.
var ErrChaosPartition = errors.New("netsim: chaos partition: dial refused")

// ChaosKind enumerates the provider failure scenarios the chaos harness
// scripts. Every scenario is deterministic: given the same seed the
// provider fails the same way at the same operation counts.
type ChaosKind int

const (
	// ChaosKill resets the first connection mid-stream; every later
	// dial is refused — a crashed provider that stays down.
	ChaosKill ChaosKind = iota
	// ChaosPartition refuses every dial from the start — a provider on
	// the wrong side of a network split.
	ChaosPartition
	// ChaosSlowDrip keeps the provider alive but drips an early write
	// byte-at-a-time — a pathologically slow but correct peer.
	ChaosSlowDrip
	// ChaosFlap resets the first connection mid-stream but accepts
	// later dials cleanly — a transient crash with recovery.
	ChaosFlap
)

func (k ChaosKind) String() string {
	switch k {
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

// ChaosSchedule is the scripted behavior of one provider across the
// lifetime of a run. Dials are counted, so one schedule must not be
// shared between runs — derive a fresh one per run.
type ChaosSchedule struct {
	// Kind is the scenario. A kill refuses every dial after the first, a
	// partition every dial; the other kinds refuse none.
	Kind ChaosKind
	// Plan is the fault plan wrapped onto the first connection (nil =
	// clean).
	Plan *FaultPlan

	dials atomic.Int64
}

// NewChaosSchedule scripts kind with parameters drawn from seed: kills
// and flaps reset the first connection at a write from 3 to 8 (past the
// handshake and the first call), slow drips pace one of writes 2 to 5 at
// 10–49µs a byte.
//
// Used only by tests: TestChaosSweepBitIdentical,
// TestChaosScheduleDeterministic.
func NewChaosSchedule(seed uint64, kind ChaosKind) *ChaosSchedule {
	r := mrand.New(mrand.NewPCG(seed, 0xc4a05))
	cs := &ChaosSchedule{Kind: kind}
	switch kind {
	case ChaosKill, ChaosFlap:
		cs.Plan = ResetAfterWrites(3 + r.IntN(6))
	case ChaosSlowDrip:
		cs.Plan = SlowDripWrite(2+r.IntN(4), time.Duration(10+r.IntN(40))*time.Microsecond)
	}
	return cs
}

// Dialer wraps the provider's base dialer with the script: refused dials
// fail with ErrChaosPartition, the first successful connection carries
// the fault plan, later connections are clean (the flap recovery path).
//
// Used only by tests: TestChaosSweepBitIdentical,
// TestChaosDialerRefusesFromIndex, TestChaosFlapRecovers.
func (cs *ChaosSchedule) Dialer(base func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		idx := cs.dials.Add(1) - 1
		if cs.Kind == ChaosPartition || (cs.Kind == ChaosKill && idx > 0) {
			return nil, fmt.Errorf("provider (%s) dial %d: %w", cs.Kind, idx, ErrChaosPartition)
		}
		conn, err := base()
		if err != nil {
			return nil, err
		}
		if idx == 0 && cs.Plan != nil {
			return cs.Plan.Wrap(conn), nil
		}
		return conn, nil
	}
}
