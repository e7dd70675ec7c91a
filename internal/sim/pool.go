package sim

import (
	"runtime"
	"sync/atomic"
)

// Pool is the kernel's bounded parallel-execution layer. The paper's
// scheduler-confinement design (scheduler-owned state slots, tokens joined
// to the scheduler that delivered them) makes independent simulations of
// one design trivially parallel: a Pool turns that property into wall
// clock, fanning a batch of independent work items over a bounded set of
// worker goroutines while keeping results deterministic — every item is
// identified by its index, workers write only to their own item's slot,
// and callers merge in index order.
//
// The zero value is ready to use and runs with one worker per available
// CPU.
type Pool struct {
	// Workers bounds the number of goroutines running items, the
	// caller's included: 0 uses runtime.GOMAXPROCS(0) (the default), 1
	// runs the batch serially on the calling goroutine (the legacy path,
	// bit-identical by construction), and any other value is taken
	// literally.
	Workers int
}

// Size returns the resolved worker count (always ≥ 1).
func (p Pool) Size() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on up to Size() workers, the
// calling goroutine among them, and returns when every item has
// finished (see ForWorker). Items are claimed from an atomic cursor, so the
// assignment of items to workers is nondeterministic — fn must write its
// result into a slot owned by index i (never append to a shared slice),
// which keeps the merged outcome independent of scheduling.
//
// Error semantics are deterministic too: if any items fail, the error of
// the LOWEST failing index is returned — the same error a serial loop
// stopping at the first failure would surface. Unlike the serial loop,
// the parallel path runs every item; callers must discard results on
// error rather than assume later items never ran.
func (p Pool) For(n int, fn func(i int) error) error {
	return p.ForWorker(n, func(_, i int) error { return fn(i) })
}

// ForWorker is For with the claiming worker's identity (in [0, Size()))
// passed alongside the item index, so callers can maintain per-worker
// scratch state — e.g. one non-concurrency-safe netlist evaluator per
// worker — without locking.
//
// The caller is worker 0: ForWorker starts Size()-1 helpers and claims
// items on the calling goroutine too, so a fan-out whose items finish
// quickly costs no hand-off to a parked caller. It returns as soon as
// the n-th item finishes — whoever finishes it closes done — without
// waiting for helpers to exit: a helper that finds the cursor exhausted
// just returns, and no fn call starts after ForWorker returns. An item
// that blocks (a remote table query) still overlaps with the others,
// because helpers claim them while the caller waits.
func (p Pool) ForWorker(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.Size()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var cursor, finished atomic.Int64
	done := make(chan struct{})
	work := func(worker int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(worker, i)
			if finished.Add(1) == int64(n) {
				close(done)
			}
		}
	}
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	<-done
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
