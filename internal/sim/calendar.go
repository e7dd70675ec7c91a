package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/signal"
)

// The scheduler's pending-event store is a bucketed calendar queue with
// struct-of-arrays signal lanes (DESIGN.md §14). Signal tokens — the
// dominant event class by two orders of magnitude — scheduled inside the
// near-future window [now, now+sigWindow) are decomposed into flat
// parallel lanes (sequence stamps, destination handler indices, ports,
// values, sources) held by the bucket of their time instant, so the hot
// post → pop cycle touches no interface header and no heap-sift pointer
// chase. Everything else — generic tokens (Self/Estimation/Control) and
// signal tokens beyond the window — goes to the spill lane, the binary
// min-heap the kernel always had. Delivery order is the exact (time,
// seq) total order of the heap-only kernel: buckets index distinct
// instants, lane appends are sequence-ascending (Post stamps from one
// counter), and a pop at time t merges the t-bucket head against the
// spill head by stamp.

// sigBuckets is the calendar size: one bucket per simulation instant in
// the near-future window. A power of two so the bucket index is a mask,
// and 64 so bucket occupancy fits one machine word — the earliest
// calendar time is a rotate plus a trailing-zero count (sigMinTime).
const sigBuckets = 64

// sigWindow is the calendar's reach: signal tokens scheduled at
// now+sigWindow or later spill to the heap. Since the window is exactly
// sigBuckets instants long, two distinct in-window times can never
// share a bucket.
const sigWindow = Time(sigBuckets)

// sigBucket holds every in-window signal token of ONE simulation
// instant in struct-of-arrays form. Lanes are parallel: entry i of each
// slice describes the same token. The lanes are kept at full length
// (len == cap) and occupancy lives in the n counter, so a post updates
// one integer instead of five slice headers. head is the next
// undelivered entry; entries before head are consumed and zeroed.
type sigBucket struct {
	time Time
	head int
	n    int // used entries; [head, n) are undelivered

	seqs  []uint64
	dsts  []uint32 // interned handler indices (Scheduler.interned)
	ports []int
	vals  []signal.Value
	srcs  []string
}

// reset returns an emptied bucket to its zero occupancy. Lane backing
// arrays are retained for reuse; consumed entries were already zeroed
// entry-by-entry at pop, so nothing is pinned.
func (b *sigBucket) reset() {
	b.head = 0
	b.n = 0
}

// bucketFor returns the calendar bucket addressing time t. Valid only
// for t in [now, now+sigWindow); the caller checks the window.
//
//gocad:noalloc
func (s *Scheduler) bucketFor(t Time) *sigBucket {
	return &s.sig[int(t&(sigBuckets-1))]
}

// internHandler maps a destination handler to its dense index in
// s.interned, so signal lanes store a 4-byte index instead of a 16-byte
// interface header. The map is bounded by the design's handler count;
// handlers with a fixed index skip it (slotIndex).
//
//gocad:noalloc
func (s *Scheduler) internHandler(h Handler) uint32 {
	if idx, ok := s.internIdx[h]; ok {
		return idx
	}
	return s.internMiss(h)
}

// slotIndex returns h's dense index given its claimed SlotIndex idx:
// idx itself when the table holds h there, the map's answer otherwise.
// The check is what makes a stale or foreign index harmless — a handler
// outside the running controller, or listed by it at another position,
// fails it and never reaches another handler's lanes or slot.
//
//gocad:noalloc
func (s *Scheduler) slotIndex(h Handler, idx uint32) uint32 {
	if idx < uint32(len(s.interned)) && s.interned[idx] == h {
		return idx
	}
	return s.internHandler(h)
}

// internMiss registers a handler first seen by this scheduler, with an
// empty state slot. Outlined so the map/slice growth stays off
// internHandler's steady-state path.
//
//go:noinline
func (s *Scheduler) internMiss(h Handler) uint32 {
	if s.internIdx == nil {
		s.internIdx = make(map[Handler]uint32)
	}
	idx := uint32(len(s.interned))
	s.interned = append(s.interned, h)
	s.slots = append(s.slots, nil)
	s.internIdx[h] = idx
	return idx
}

// enqueue routes one sequenced token into the event store: in-window
// signal tokens are decomposed into the calendar's lanes (the token
// itself is not kept), everything else spills to the heap. Both paths
// update the pending count and its high-water mark, so Pending and
// MaxQueueLen mean "tokens waiting, summed across lanes" exactly as
// they meant "heap length" before.
//
//gocad:noalloc
func (s *Scheduler) enqueue(tok Token, seq uint64) {
	if st, ok := tok.(*SignalToken); ok && st.T < s.now+sigWindow {
		s.pushLane(st.T, s.internHandler(st.Dst), st.Port, st.Value, st.Src, seq)
		return
	}
	s.spill.push(scheduledToken{tok: tok, seq: seq})
	s.queued()
}

// pushLane appends one signal token, field by field, to the calendar
// bucket of time t, which must lie in [now, now+sigWindow); dst is the
// destination's dense index.
//
//gocad:noalloc
func (s *Scheduler) pushLane(t Time, dst uint32, port int, v signal.Value, src string, seq uint64) {
	b := s.bucketFor(t)
	n := b.n
	if n == b.head {
		// First token of this instant claims the bucket. Emptied
		// buckets are reset at pop, so a claimable bucket is always
		// already clean — only the time stamp and mask bit are set.
		b.time = t
		s.sigMask |= 1 << uint(t&(sigBuckets-1))
	} else if b.time != t {
		bucketCollisionPanic(b.time, t)
	}
	// One length check covers all five lanes: they are sized in
	// lockstep, so equal length is a bucket invariant.
	if n == len(b.seqs) {
		s.growBucketLanes(b)
	}
	b.seqs[n] = seq
	b.dsts[n] = dst
	b.ports[n] = port
	b.vals[n] = v
	b.srcs[n] = src
	b.n = n + 1
	s.queued()
}

// queued counts one more pending token and tracks the high-water mark.
//
//gocad:noalloc
func (s *Scheduler) queued() {
	s.pending++
	if s.pending > s.maxQueue {
		s.maxQueue = s.pending
	}
}

// laneSlab is the bump allocator behind first-touch bucket lanes: five
// shared backing arrays carved into per-bucket views, so a scheduler
// pays five allocations for its whole calendar instead of five per
// bucket. Lanes are not pre-carved for all 64 buckets: most runs touch
// only a handful of distinct instants. off is the carve cursor, shared
// by all five arrays (they advance in lockstep).
type laneSlab struct {
	seqs  []uint64
	dsts  []uint32
	ports []int
	vals  []signal.Value
	srcs  []string
	off   int
}

// laneQuantum is the initial lane capacity a first-touched bucket gets
// from the slab; laneSlabBuckets is how many first touches one slab
// refill serves. 16 keeps a refill at ~6KB — runs that visit only a few
// instants stay cheap, and a full window pass costs four refills.
const (
	laneQuantum     = 8
	laneSlabBuckets = 16
)

// growBucketLanes gives a bucket more lane capacity: first touch carves
// laneQuantum entries from the scheduler's shared slab (refilled with
// one allocation per lane when exhausted), occupied buckets grow every
// lane in lockstep, keeping them at full length. Outlined so the
// allocation stays off enqueue's //gocad:noalloc steady-state path —
// once the active instants' buckets are sized this is a cold fallback.
//
//go:noinline
func (s *Scheduler) growBucketLanes(b *sigBucket) {
	if len(b.seqs) == 0 {
		if s.slab.off == len(s.slab.seqs) {
			n := laneSlabBuckets * laneQuantum
			s.slab = laneSlab{
				seqs:  make([]uint64, n),
				dsts:  make([]uint32, n),
				ports: make([]int, n),
				vals:  make([]signal.Value, n),
				srcs:  make([]string, n),
			}
		}
		// Full slice expressions cap each view so a later doubling can
		// never bleed into a neighboring bucket's lanes.
		lo, hi := s.slab.off, s.slab.off+laneQuantum
		b.seqs = s.slab.seqs[lo:hi:hi]
		b.dsts = s.slab.dsts[lo:hi:hi]
		b.ports = s.slab.ports[lo:hi:hi]
		b.vals = s.slab.vals[lo:hi:hi]
		b.srcs = s.slab.srcs[lo:hi:hi]
		s.slab.off = hi
		return
	}
	// Quadruple rather than double: event counts concentrate in the few
	// buckets of the active instants (circuit delays are small), so deep
	// buckets are the norm in gate-dense designs and each growth step
	// costs five allocations. 4× reaches depth in half the steps for a
	// worst-case 4× overshoot on short-lived lane memory.
	c := 4 * len(b.seqs)
	seqs := make([]uint64, c)
	copy(seqs, b.seqs)
	b.seqs = seqs
	dsts := make([]uint32, c)
	copy(dsts, b.dsts)
	b.dsts = dsts
	ports := make([]int, c)
	copy(ports, b.ports)
	b.ports = ports
	vals := make([]signal.Value, c)
	copy(vals, b.vals)
	b.vals = vals
	srcs := make([]string, c)
	copy(srcs, b.srcs)
	b.srcs = srcs
}

// bucketCollisionPanic reports a violated calendar invariant: two
// distinct times mapped to one bucket, which the window arithmetic
// makes impossible unless the clock ran past pending events.
//
//go:noinline
func bucketCollisionPanic(have, want Time) {
	panic(fmt.Sprintf("sim: calendar bucket holds time %d, cannot accept time %d", have, want))
}

// sigMinTime returns the earliest calendar instant, ok=false when every
// bucket is empty. All occupied buckets hold times in [now, now+64), so
// rotating the occupancy word by now's bucket index turns "earliest
// time" into "lowest set bit".
//
//gocad:noalloc
func (s *Scheduler) sigMinTime() (Time, bool) {
	if s.sigMask == 0 {
		return 0, false
	}
	rot := bits.RotateLeft64(s.sigMask, -int(s.now&(sigBuckets-1)))
	return s.now + Time(bits.TrailingZeros64(rot)), true
}

// popBucket consumes the bucket's head entry, materializing it into the
// scheduler's scratch SignalToken (the delivery loop owns it only until
// the handler returns). The consumed lane entries are zeroed so they
// pin neither values nor source strings.
//
//gocad:noalloc
func (s *Scheduler) popBucket(b *sigBucket) {
	i := b.head
	s.popScratch.T = b.time
	s.popScratch.Dst = s.interned[b.dsts[i]]
	s.popScratch.Port = b.ports[i]
	s.popScratch.Value = b.vals[i]
	s.popScratch.Src = b.srcs[i]
	b.vals[i] = nil
	b.srcs[i] = ""
	b.head = i + 1
	if b.head == b.n {
		b.reset()
		s.sigMask &^= 1 << uint(b.time&(sigBuckets-1))
	}
	s.pending--
}
