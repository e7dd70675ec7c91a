// Package netsim emulates the three network environments of the paper's
// performance study — the same host (Local), the campus LAN, and the
// Bologna–Padova WAN — by computing deterministic, profile-dependent
// transfer delays that the RPC layer injects around each call, and by
// metering the time a client spends blocked on the (emulated) network.
// The CPU-time/real-time split of Table 2 is reconstructed from these
// meters: real time is wall-clock, CPU time is wall-clock minus blocked
// time.
//
// The absolute magnitudes are scaled down from 1999 reality so the full
// Table 2 grid reruns in seconds; the RATIOS between profiles follow the
// paper's measured environments (WAN round trips two orders of magnitude
// above local IPC, LAN in between).
package netsim

import (
	mrand "math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// Profile characterizes one network environment.
type Profile struct {
	Name string
	// OneWay is the fixed latency added to each direction of a call.
	OneWay time.Duration
	// PerKB is the serialization delay per kilobyte transferred.
	PerKB time.Duration
	// Jitter is the maximum extra random delay per direction.
	Jitter time.Duration
}

// The three environments of Table 2, plus the no-RMI baseline.
var (
	// InProcess models a direct call with no RMI at all (the AL case).
	InProcess = Profile{Name: "none"}
	// Local runs client and server on the same host: RMI marshalling
	// without network transit.
	Local = Profile{Name: "local", OneWay: 50 * time.Microsecond, PerKB: 5 * time.Microsecond}
	// LAN is a lightly loaded campus network.
	LAN = Profile{Name: "LAN", OneWay: 500 * time.Microsecond, PerKB: 40 * time.Microsecond, Jitter: 200 * time.Microsecond}
	// WAN is a long-distance Internet path.
	WAN = Profile{Name: "WAN", OneWay: 12 * time.Millisecond, PerKB: 400 * time.Microsecond, Jitter: 4 * time.Millisecond}
)

// ProfileByName returns the profile with the given name, defaulting to
// InProcess for unknown names.
func ProfileByName(name string) Profile {
	switch name {
	case Local.Name:
		return Local
	case LAN.Name:
		return LAN
	case WAN.Name:
		return WAN
	}
	return InProcess
}

// Delay returns the emulated one-way transfer time for a message of the
// given size, without jitter.
func (p Profile) Delay(bytes int) time.Duration {
	return p.OneWay + time.Duration(int64(p.PerKB)*int64(bytes)/1024)
}

// EmulatedRoundTrip is the injected client-side delay for one completed
// call of the given byte volumes, with jitter drawn from the caller's
// seeded math/rand/v2 source (nil disables jitter). This is the quantity
// the RPC layer sleeps per call; on a pipelined transport each in-flight
// call sleeps its own EmulatedRoundTrip concurrently, so emulated
// latency OVERLAPS across in-flight calls — the wall-clock cost of N
// pipelined calls approaches one round trip plus N serialization times,
// not N round trips.
func (p Profile) EmulatedRoundTrip(sent, recvd int, jr *mrand.Rand) time.Duration {
	if p.OneWay == 0 && p.PerKB == 0 && p.Jitter == 0 {
		return 0
	}
	d := p.Delay(sent) + p.Delay(recvd)
	if p.Jitter > 0 && jr != nil {
		d += time.Duration(jr.Int64N(int64(p.Jitter)))
		d += time.Duration(jr.Int64N(int64(p.Jitter)))
	}
	return d
}

// sleepSlack is how early Wait hands off from time.Sleep to its
// yield-spin tail. The Go runtime's timer granularity rounds short
// sleeps up to roughly a millisecond on common kernels, so any sleep at
// or below the slack would overshoot by an order of magnitude; the
// slack must cover that rounding.
const sleepSlack = 1200 * time.Microsecond

// Wait blocks for the given emulated delay with sub-millisecond
// accuracy. time.Sleep alone cannot emulate the Local profile: its
// ~100µs round trips get rounded up to the runtime's timer granularity
// (~1.1ms observed), inflating an emulated-local scenario by 10× per
// call. Wait sleeps for all but the last sleepSlack of the delay —
// keeping long LAN/WAN delays off-CPU — then yields the processor in a
// loop until the deadline, bounding the busy tail to ~sleepSlack per
// call. Deadline-based timing keeps the total accurate even when the
// coarse sleep overshoots.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Until(deadline) > 0 {
		runtime.Gosched()
	}
}

// Meter accumulates a client's network accounting: how long it sat
// blocked on calls, how many calls it made, and how many bytes moved.
// Meters are safe for concurrent use (nonblocking estimation flushes from
// worker goroutines).
type Meter struct {
	blocked atomic.Int64 // nanoseconds
	calls   atomic.Int64
	bytes   atomic.Int64
}

// AddBlocked records time spent blocked on the network.
func (m *Meter) AddBlocked(d time.Duration) { m.blocked.Add(int64(d)) }

// AddCall records one completed call moving n bytes.
func (m *Meter) AddCall(n int) { m.calls.Add(1); m.bytes.Add(int64(n)) }

// Blocked returns the total time spent blocked.
func (m *Meter) Blocked() time.Duration { return time.Duration(m.blocked.Load()) }

// Calls returns the number of completed calls.
func (m *Meter) Calls() int64 { return m.calls.Load() }

// Bytes returns the total bytes transferred.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.blocked.Store(0)
	m.calls.Store(0)
	m.bytes.Store(0)
}

// Split decomposes a measured wall-clock duration into the Table 2
// columns: real time (wall) and CPU time (wall minus blocked, floored at
// zero — overlapping nonblocking calls can accumulate more blocked time
// than the critical path).
func (m *Meter) Split(wall time.Duration) (cpu, real time.Duration) {
	cpu = wall - m.Blocked()
	if cpu < 0 {
		cpu = 0
	}
	return cpu, wall
}
