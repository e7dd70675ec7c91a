// Package leakcheck is a stdlib-only goroutine-leak gate for tests: it
// snapshots the goroutine count when armed and, at cleanup, retries for
// a grace period waiting for the count to return to the baseline. The
// reconnect and stop paths this repo grew — mux readers, pool workers,
// dispatchers, drain waiters — all end in goroutines that are easy to
// orphan; wrapping their tests in Check makes an orphan a test failure
// with a full stack dump instead of a slow background rot.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long cleanup waits for stragglers to exit: goroutines
// legitimately take a few scheduler beats to unwind after Close.
const grace = 2 * time.Second

// Check arms the leak gate: it snapshots runtime.NumGoroutine now and
// registers a cleanup that fails the test if, after the grace period,
// more goroutines are running than at the snapshot. Call it first in
// the test, before spawning anything.
//
// Used only by tests: TestCloseStopsLiveSessions,
// TestProviderCloseStopsSessions and the other stop-path, chaos and pool
// tests of core, gateway, provider, rmi and sim.
func Check(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutines still running, %d at test start; stacks:\n%s",
			n, base, stacks())
	})
}

// stacks dumps every goroutine's stack, trimming the snapshot machinery
// itself so the report points at the leak.
func stacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	all := string(buf[:n])
	var keep []string
	for _, g := range strings.Split(all, "\n\n") {
		if strings.Contains(g, "leakcheck.stacks") {
			continue
		}
		keep = append(keep, g)
	}
	return strings.Join(keep, "\n\n")
}
