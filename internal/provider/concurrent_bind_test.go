package provider

import (
	"sync"
	"testing"

	"repro/internal/iplib"
	"repro/internal/rmi"
)

// TestConcurrentBindsGetUniqueHandles binds many instances at once on
// fresh sessions, as the concurrent session workers dispatch them: every
// bind must get its own handle, or one instance silently replaces
// another (and a reconnect's handle-order replay breaks).
func TestConcurrentBindsGetUniqueHandles(t *testing.T) {
	p := New("provider1")
	if err := p.Register(HalfAdderIP1()); err != nil {
		t.Fatal(err)
	}
	payload, err := rmi.EncodePayload(iplib.BindReq{Component: "IP1-HalfAdder", Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, binds = 4000, 16
	for r := 0; r < rounds; r++ {
		sess := &rmi.Session{}
		ids := make([]uint64, binds)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				resp, err := p.handleBind(sess, payload)
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = resp.(iplib.BindResp).Instance
			}()
		}
		start.Done()
		wg.Wait()
		seen := make(map[uint64]bool, binds)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("round %d: handle %d issued twice: %v", r, id, ids)
			}
			seen[id] = true
		}
	}
}
