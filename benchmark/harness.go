package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// limits ends a measured loop: after d, or once maxOps operations have
// started when maxOps is positive (the smoke test's cap).
type limits struct {
	d      time.Duration
	maxOps int
}

func (l limits) done(ops int, start time.Time) bool {
	return (l.maxOps > 0 && ops >= l.maxOps) || time.Since(start) >= l.d
}

// measurement is what one measured loop observed. record is safe for
// concurrent use.
type measurement struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	lat       []time.Duration // untraced operation latencies
	tracedLat []time.Duration // traced operation latencies
	// yard holds, for each untraced latency, the yardstick sample taken
	// right after its operation (0 on traced runs, which take none).
	yard []time.Duration
	// completed closed-loop operations took loopTime in all.
	completed int
	loopTime  time.Duration
	// layers holds the per-layer metrics of a traced run by name.
	layers map[string]float64
	// notes are extra human-readable lines for the report.
	notes []string
	// rssMB is the peak resident set at the end of the measured loop,
	// before any end-of-run check allocates.
	rssMB float64
}

func newMeasurement() *measurement { return &measurement{layers: make(map[string]float64)} }

// record counts one timed operation and the yardstick sample y taken
// right after it; a failed or wrong one adds no latency.
func (m *measurement) record(d, y time.Duration, err error, traced bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.countLocked(err)
	switch {
	case err != nil:
	case traced:
		m.tracedLat = append(m.tracedLat, d)
	default:
		m.lat = append(m.lat, d)
		m.yard = append(m.yard, y)
	}
}

// count counts one operation whose latency is not reported.
func (m *measurement) count(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.countLocked(err)
}

func (m *measurement) countLocked(err error) {
	m.attempted++
	if err != nil {
		m.failLocked(err)
	}
}

// fail records a failed check that is not an operation of its own.
func (m *measurement) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(err)
}

func (m *measurement) failLocked(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// notePeakRSS records the process's peak resident set so far.
func (m *measurement) notePeakRSS() {
	rss, err := peakRSSMB()
	if err != nil {
		m.fail(fmt.Errorf("peak RSS: %w", err))
	}
	m.rssMB = rss
}

// setOverhead reports the traced operations' median latency against the
// untraced ones'.
func (m *measurement) setOverhead() {
	if u := median(millis(m.lat)); u > 0 {
		m.layers["trace.overhead_pct"] = 100 * (median(millis(m.tracedLat)) - u) / u
	}
}

// serialOp runs one operation and returns its timed duration. tr is nil
// for an untraced operation. A wrong output is an error.
type serialOp func(op int, tr *tracer) (time.Duration, error)

// serialLoop is the closed loop with one caller. An untraced run times
// the yardstick after every operation. A traced run (tr set) traces every
// other operation; the untraced ones between them give the runtime and
// process costs and the baseline for trace.overhead_pct.
func serialLoop(lim limits, tr *tracer, op serialOp) *measurement {
	traced := tr != nil
	m := newMeasurement()
	var acc usageAcc
	y := newYardstick()
	first := readUsage()
	start := time.Now()
	for i := 0; !lim.done(i, start); i++ {
		if !traced {
			d, err := op(i, nil)
			m.record(d, y.sample(), err, false)
			continue
		}
		if i%2 == 0 {
			d, err := op(i, tr)
			m.record(d, 0, err, true)
			continue
		}
		before := readUsage()
		d, err := op(i, nil)
		if err == nil {
			acc.add(before, readUsage(), 1)
		}
		m.record(d, 0, err, false)
	}
	m.completed, m.loopTime = len(m.lat)+len(m.tracedLat), time.Since(start)
	m.notePeakRSS()
	if traced {
		acc.report(m.layers, first, readUsage())
		m.setOverhead()
	}
	return m
}

// usage is a snapshot of the process's allocation and CPU counters.
type usage struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64 // runtime/metrics CPU-class estimates, seconds
	procCPU            time.Duration
}

var usageNames = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	var s [len(usageNames)]metrics.Sample
	for i, n := range usageNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail; a zero reading only
	// zeroes proc.cpu_ms_per_op.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// usageAcc sums usage deltas over a set of operations.
type usageAcc struct {
	ops                int
	allocs, allocBytes uint64
	procCPU            time.Duration
}

func (a *usageAcc) add(before, after usage, ops int) {
	a.ops += ops
	a.allocs += after.allocs - before.allocs
	a.allocBytes += after.allocBytes - before.allocBytes
	a.procCPU += after.procCPU - before.procCPU
}

// report sets the runtime and proc metrics: per-operation means over the
// accumulated operations, and the GC's CPU share between first and last.
func (a *usageAcc) report(layers map[string]float64, first, last usage) {
	if a.ops > 0 {
		n := float64(a.ops)
		layers["runtime.allocs_per_op"] = float64(a.allocs) / n
		layers["runtime.alloc_kb_per_op"] = float64(a.allocBytes) / 1024 / n
		layers["proc.cpu_ms_per_op"] = float64(a.procCPU) / float64(time.Millisecond) / n
	}
	if total := last.totalCPU - first.totalCPU; total > 0 {
		layers["runtime.gc_cpu_frac"] = (last.gcCPU - first.gcCPU) / total
	}
}
