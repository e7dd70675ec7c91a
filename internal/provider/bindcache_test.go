package provider

import (
	"runtime"
	"testing"

	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/signal"
)

// allocBytesDuring runs fn and returns the process-wide TotalAlloc
// delta around it, with a GC fence before each reading so concurrently
// collectable garbage does not smear the counts.
func allocBytesDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgetMultShape drops the MultFastLowPower netlist of width, and every
// testability service built on it, from the process-wide caches, so a
// test that measures a cold bind of that width gets one again when the
// test binary runs it a second time (go test -count=2).
func forgetMultShape(width int) {
	key := catalogShape{component: "MultFastLowPower", width: width}
	v, ok := canonicalNetlists.LoadAndDelete(key)
	if !ok {
		return
	}
	testabilityCache.Range(func(k, _ any) bool {
		if k.(testKey).nl == v.(*gate.Netlist) {
			testabilityCache.Delete(k)
		}
		return true
	})
}

// TestBindShapeCacheAmortizesFaultPath asserts the bind-shape caches do
// their job: the first Bind plus FaultList of a shape pays for netlist
// construction, topological ordering and the fault service, and every
// later Bind plus FaultList of the same shape — even from a different
// Provider instance — reuses the canonical netlist and its
// testability, costing only per-session state and the fault-list
// reply. Beyond the reply, the warm pair must allocate under a third of
// the bytes the cold one does.
//
// Bytes rather than allocations: the netlist and the fault service are
// built from a handful of large allocations each, so their count says
// little about their cost.
//
// The test must own its width: the caches are process-wide, so a width
// another test binds would already be warm. Width 30 is reserved for
// this test, width 29 for TestBindLeavesTestabilityUnbuilt; the rest of
// the package binds widths 4 and 8. Each test forgets its width first,
// so its own earlier run leaves nothing warm either.
func TestBindShapeCacheAmortizesFaultPath(t *testing.T) {
	const width = 30
	forgetMultShape(width)
	bindAndList := func(c *iplib.IPClient) *iplib.BoundInstance {
		b, err := c.Bind("MultFastLowPower", width, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.FaultList(); err != nil {
			t.Fatal(err)
		}
		return b
	}

	_, c1 := startProvider(t)
	cold := allocBytesDuring(func() { bindAndList(c1) })

	// A fresh Provider (fresh per-instance state, same process-wide
	// caches) — the shape the paper's session model re-binds per run.
	_, c2 := startProvider(t)
	var b *iplib.BoundInstance
	warm := allocBytesDuring(func() { b = bindAndList(c2) })

	// The fault-list reply itself (thousands of names to encode and
	// decode) costs the same cold or warm; only what is left after it
	// is what the caches amortize.
	reply := allocBytesDuring(func() {
		if _, err := b.FaultList(); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("bind+FaultList width %d: cold %d bytes, warm %d, reply alone %d", width, cold, warm, reply)
	if warm < reply || cold < reply {
		t.Fatalf("a bind+FaultList allocated less than its fault-list reply alone (cold %d, warm %d, reply %d)", cold, warm, reply)
	}
	if (warm-reply)*3 >= cold-reply {
		t.Fatalf("warm bind+FaultList = %d bytes beyond the reply, want < a third of the cold pair's %d",
			warm-reply, cold-reply)
	}
}

// TestBindLeavesTestabilityUnbuilt: a bind alone does not build the
// shape's fault service; the first fault query does.
func TestBindLeavesTestabilityUnbuilt(t *testing.T) {
	const width = 29 // reserved; see TestBindShapeCacheAmortizesFaultPath
	forgetMultShape(width)
	p, c := startProvider(t)
	b, err := c.Bind("MultFastLowPower", width, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	key := testKey{nl: p.nlCache[shapeKey{component: "MultFastLowPower", width: width}], naming: p.FaultNaming}
	p.mu.Unlock()
	if key.nl == nil {
		t.Fatal("bound shape missing from the bind-shape cache")
	}
	if _, ok := testabilityCache.Load(key); ok {
		t.Fatal("bind built the testability service")
	}
	if _, err := b.FaultList(); err != nil {
		t.Fatal(err)
	}
	if _, ok := testabilityCache.Load(key); !ok {
		t.Fatal("FaultList left the testability service unbuilt")
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
