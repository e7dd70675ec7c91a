package sim

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestPoolSize(t *testing.T) {
	leakcheck.Check(t)
	if got := (Pool{}).Size(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default size = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Pool{Workers: 3}).Size(); got != 3 {
		t.Errorf("size = %d, want 3", got)
	}
}

func TestPoolForCoversAllIndices(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 8} {
		seen := make([]atomic.Int32, 100)
		err := Pool{Workers: workers}.For(100, func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestPoolForZeroItems(t *testing.T) {
	leakcheck.Check(t)
	called := false
	if err := (Pool{Workers: 4}).For(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for empty range")
	}
}

// TestPoolForLowestErrorWins: the error reported must be the one of the
// lowest failing index, matching what a serial loop would have returned
// first — this keeps error behavior identical across worker counts.
func TestPoolForLowestErrorWins(t *testing.T) {
	leakcheck.Check(t)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		err := Pool{Workers: workers}.For(50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

// TestPoolForWorkerIdentity: worker indices must stay within [0, size) and
// each index must be owned by exactly one goroutine at a time, so callers
// can hand each worker private scratch space (e.g. a gate evaluator).
func TestPoolForWorkerIdentity(t *testing.T) {
	leakcheck.Check(t)
	const workers = 4
	busy := make([]atomic.Int32, workers)
	err := Pool{Workers: workers}.ForWorker(200, func(worker, i int) error {
		if worker < 0 || worker >= workers {
			t.Errorf("worker %d out of range", worker)
		}
		if busy[worker].Add(1) != 1 {
			t.Errorf("worker %d reentered concurrently", worker)
		}
		busy[worker].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolSerialRunsInline: Workers=1 must run on the caller's goroutine
// in index order — the legacy serial semantics some callers rely on.
func TestPoolSerialRunsInline(t *testing.T) {
	leakcheck.Check(t)
	var mu sync.Mutex
	var order []int
	err := Pool{Workers: 1}.For(10, func(i int) error {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

// TestPoolSerialStopsAtFirstError: the serial path must not run items
// after a failure, exactly like the historical loops it replaces.
func TestPoolSerialStopsAtFirstError(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("boom")
	ran := 0
	err := Pool{Workers: 1}.For(10, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 {
		t.Errorf("ran = %d items, want 4", ran)
	}
}

// TestPoolBoundedConcurrency: no more than Workers goroutines may be in
// fn simultaneously.
func TestPoolBoundedConcurrency(t *testing.T) {
	leakcheck.Check(t) // every helper must exit soon after For returns
	const workers = 3
	var cur, peak atomic.Int32
	err := Pool{Workers: workers}.For(100, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d > %d workers", p, workers)
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestPoolCallerIsWorkerZero: the calling goroutine runs items as
// worker 0, and only it does. The two items wait for each other, so
// they run at once, and with one helper one of them runs on the caller.
func TestPoolCallerIsWorkerZero(t *testing.T) {
	leakcheck.Check(t)
	caller := goid()
	var started atomic.Int32
	both := make(chan struct{})
	var onCaller atomic.Int32
	err := Pool{Workers: 2}.ForWorker(2, func(worker, i int) error {
		g := goid()
		if (g == caller) != (worker == 0) {
			t.Errorf("item %d: worker %d ran on goroutine %d, caller is %d", i, worker, g, caller)
		}
		if g == caller {
			onCaller.Add(1)
		}
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the two items never ran at once")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := onCaller.Load(); n != 1 {
		t.Errorf("the caller ran %d items, want 1", n)
	}
}

// TestPoolBlockedItemsOverlap: an item that blocks until another item
// runs must not stall the fan-out, whichever goroutine claims it — the
// property that keeps detection-table queries to different remote
// providers overlapping.
func TestPoolBlockedItemsOverlap(t *testing.T) {
	leakcheck.Check(t)
	for rep := 0; rep < 20; rep++ {
		released := make(chan struct{})
		err := Pool{Workers: 2}.For(2, func(i int) error {
			if i == 1 {
				close(released)
				return nil
			}
			select {
			case <-released:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("item 0 waited for item 1, which never ran")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolNoCallAfterReturn: ForWorker returns without waiting for its
// helpers to exit, but no fn call may start or still run once it has
// returned.
func TestPoolNoCallAfterReturn(t *testing.T) {
	var late atomic.Int32
	// Registered before leakcheck so it runs after leakcheck's cleanup
	// has seen every helper exit.
	t.Cleanup(func() {
		if n := late.Load(); n != 0 {
			t.Errorf("%d fn calls ran after ForWorker returned", n)
		}
	})
	leakcheck.Check(t)
	for rep := 0; rep < 200; rep++ {
		var returned atomic.Bool
		err := Pool{Workers: 4}.ForWorker(1+rep%7, func(worker, i int) error {
			if i%3 == 0 {
				runtime.Gosched()
			}
			if returned.Load() {
				late.Add(1)
			}
			return nil
		})
		returned.Store(true)
		if err != nil {
			t.Fatal(err)
		}
	}
}
