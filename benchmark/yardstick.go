package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// A yardstick is a fixed computation owned by the benchmark that measures
// how fast the host runs at a given moment. On a shared host, contention
// from other tenants comes and goes over milliseconds to minutes and
// slows CPU-bound code by up to 2x, CPU time as much as wall time. The
// loops time the yardstick right after each operation; dividing the
// operation's time by the yardstick's gives its time at the nominal host
// speed, which the contention moves far less than the time itself.
//
// It mixes what the workloads do (table updates, a sort and a hash) on
// 36 KiB of tables that stay in the core's caches, so the working set an
// operation leaves behind does not change its time, and it allocates
// nothing while it runs.
type yardstick struct {
	keys   [yardKeys]uint32
	sorted [yardKeys]uint32
	counts [yardBuckets]uint32
	buf    [16 << 10]byte
	sink   uint64
}

// yardstickNominal is one yardstick sample's time on the reference
// machine (2-vCPU Intel Xeon, Go 1.24) when its host is quiet; times at
// the nominal host speed read as if the host ran at that speed.
const yardstickNominal = 470 * time.Microsecond

const (
	yardKeys    = 4096
	yardBuckets = 1024
	yardSamples = 25 // samples timed at process start
)

// newYardstick fills the tables from a fixed seed (splitmix64).
func newYardstick() *yardstick {
	y := &yardstick{}
	s := uint64(1)
	rnd := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range y.keys {
		y.keys[i] = uint32(rnd())
	}
	for i := range y.buf {
		y.buf[i] = byte(rnd())
	}
	return y
}

func (y *yardstick) pass() {
	clear(y.counts[:])
	for _, k := range y.keys {
		y.counts[(k*2654435761)>>22] += k
	}
	y.sorted = y.keys
	slices.Sort(y.sorted[:])
	sum := sha256.Sum256(y.buf[:])
	y.sink += uint64(y.counts[7]) + uint64(y.sorted[yardKeys/2]) + uint64(sum[0])
}

// sample times two passes after an untimed one that brings the tables
// back into the caches.
func (y *yardstick) sample() time.Duration {
	y.pass()
	t0 := time.Now()
	y.pass()
	y.pass()
	return time.Since(t0)
}

// timeYard takes yardSamples samples, in nanoseconds, on a fresh
// yardstick. A process calls it first thing, before any workload code
// runs.
func timeYard() []float64 {
	y := newYardstick()
	ts := make([]float64, yardSamples)
	for i := range ts {
		ts[i] = float64(y.sample())
	}
	return ts
}

// hostSpeed is a process's host speed at its start as a yardstick time:
// the tenth percentile of the samples timeYard took, the speed in the
// quieter moments.
func hostSpeed(yardNS []float64) time.Duration {
	return time.Duration(percentile(yardNS, 0.1))
}

// atNominal returns d as it would read at the nominal host speed, given
// the yardstick time y measured with it.
func atNominal(d, y time.Duration) time.Duration {
	if y <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(yardstickNominal) / float64(y))
}
