package provider

import (
	"runtime"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

// mallocsDuring runs fn and returns the process-wide Mallocs delta
// around it, with a GC fence before each reading so concurrently
// collectable garbage does not smear the counts.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBindShapeCacheAmortizesFaultPath asserts the bind-shape caches do
// their job: the first Bind of a shape pays for netlist construction,
// topological ordering and fault-path enumeration (thousands of
// allocations at width 30), and every later Bind of the same shape —
// even from a different Provider instance — reuses the canonical
// netlist and its testability, costing only session plumbing. The warm
// bind must come in under a tenth of the cold one.
//
// The test must own its width: the caches are process-wide, so a width
// another test binds would already be warm. Width 30 is reserved for
// this test; the rest of the package binds widths 4 and 8.
func TestBindShapeCacheAmortizesFaultPath(t *testing.T) {
	const width = 30

	_, c1 := startProvider(t)
	cold := mallocsDuring(func() {
		if _, err := c1.Bind("MultFastLowPower", width, nil); err != nil {
			t.Fatal(err)
		}
	})

	// A fresh Provider (fresh per-instance state, same process-wide
	// caches) — the shape the paper's session model re-binds per run.
	_, c2 := startProvider(t)
	warm := mallocsDuring(func() {
		if _, err := c2.Bind("MultFastLowPower", width, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("bind width %d: cold %d mallocs, warm %d mallocs", width, cold, warm)
	if warm*10 >= cold {
		t.Fatalf("warm bind = %d mallocs, want < 10%% of cold bind (%d)", warm, cold)
	}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestInstanceMemoryFlatAcrossBatches: a bound instance keeps no
// per-pattern state, so a session's live heap does not grow with the
// number of patterns it has estimated. 64,000 patterns would retain at
// least 500 KB if the power simulator kept a per-pattern series.
func TestInstanceMemoryFlatAcrossBatches(t *testing.T) {
	_, c := startProvider(t)
	b, err := c.Bind("MultFastLowPower", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl := gate.ArrayMultiplier(4)
	batch := make([][]signal.Bit, gate.Lanes)
	for i := range batch {
		batch[i] = nl.InputWord(uint64(i * 37))
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := b.PowerBatch(batch, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(100)
	before := heapAfterGC()
	send(1000)
	after := heapAfterGC()
	t.Logf("live heap %d -> %d bytes over 64,000 patterns", before, after)
	if after > before+256<<10 {
		t.Fatalf("live heap grew %d bytes over 1000 batches, want < 256 KB", after-before)
	}
}
