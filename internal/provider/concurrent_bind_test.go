package provider

import (
	"sync"
	"testing"

	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/rmi"
	"repro/internal/signal"
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

// TestConcurrentEstimatesShareOneInstance runs Evals, power batches and
// timing batches on one bound instance at once, as the session workers
// dispatch them: all three share the instance's lane evaluator, so
// every Eval must still return a·b.
func TestConcurrentEstimatesShareOneInstance(t *testing.T) {
	p := New("provider1")
	if err := p.Register(MultFastLowPower()); err != nil {
		t.Fatal(err)
	}
	sess := &rmi.Session{}
	bind, err := rmi.EncodePayload(iplib.BindReq{Component: "MultFastLowPower", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.handleBind(sess, bind)
	if err != nil {
		t.Fatal(err)
	}
	inst := resp.(iplib.BindResp).Instance
	nl := gate.ArrayMultiplier(4)
	batch := make([][]signal.Bit, 5)
	for i := range batch {
		batch[i] = nl.InputWord(uint64(i * 53))
	}
	power, err := rmi.EncodePayload(iplib.PowerBatchReq{Instance: inst, Patterns: batch})
	if err != nil {
		t.Fatal(err)
	}
	timing, err := rmi.EncodePayload(iplib.TimingBatchReq{Instance: inst, Patterns: batch})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(g); v < 256; v += 4 {
				eval, err := rmi.EncodePayload(iplib.EvalReq{Instance: inst, Inputs: nl.InputWord(v)})
				if err != nil {
					t.Error(err)
					return
				}
				out, err := p.handleEval(sess, eval)
				if err != nil {
					t.Error(err)
					return
				}
				got, ok := signal.WordFromBits(out.(iplib.EvalResp).Outputs).Uint64()
				if want := (v & 15) * (v >> 4); !ok || got != want {
					t.Errorf("eval %d*%d = %d (known %v), want %d", v&15, v>>4, got, ok, want)
				}
			}
		}()
	}
	for _, req := range []struct {
		h       func(*rmi.Session, []byte) (any, error)
		payload []byte
	}{{p.handlePowerBatch, power}, {p.handleTimingBatch, timing}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if _, err := req.h(sess, req.payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
