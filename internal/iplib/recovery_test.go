package iplib

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rmi"
	"repro/internal/signal"
)

func TestIdempotencyTable(t *testing.T) {
	tests := []struct {
		method string
		want   bool
	}{
		{MethodCatalogue, true},
		{MethodFees, true},
		{MethodNegotiate, true},
		{MethodStatic, true},
		{MethodFaultList, true},
		{MethodFaultTable, true},
		{MethodEval, true},
		{MethodPowerBatch, true},
		{MethodTimingBatch, true},
		{MethodBind, false},    // allocates an instance, charges a license
		{MethodTestSet, false}, // sells a priced artifact
		{"ip.unknown", false},  // default-deny for unlisted methods
	}
	for _, tc := range tests {
		if got := Idempotent(tc.method); got != tc.want {
			t.Errorf("Idempotent(%q) = %v, want %v", tc.method, got, tc.want)
		}
	}
}

func TestJournalRecordsOnlySessionState(t *testing.T) {
	c := fakeProvider(t)
	c.EnableRecovery()
	inst, err := c.Bind("Thing", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Estimation batches and stateless or read-only calls stay out of the
	// journal: histories replay from their estimators.
	if _, err := inst.PowerBatch([][]signal.Bit{{signal.B0, signal.B1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Eval([]signal.Bit{signal.B0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalogue(); err != nil {
		t.Fatal(err)
	}
	want := []bound{{7, BindReq{Component: "Thing", Width: 2}}}
	if !reflect.DeepEqual(c.journal.binds, want) {
		t.Errorf("journal binds = %+v, want %+v", c.journal.binds, want)
	}
	if len(c.journal.histories) != 0 {
		t.Errorf("journal holds %d histories, want 0", len(c.journal.histories))
	}
}

// replayed is one call a journal replay issued.
type replayed struct {
	method string
	args   rmi.PortData
}

func TestJournalReplayPreservesOrderAndVerifiesBindIDs(t *testing.T) {
	j := &sessionJournal{}
	// Journaled out of handle order, as concurrent binds may complete.
	j.bind(3, BindReq{Component: "Z", Width: 2})
	j.bind(1, BindReq{Component: "X", Width: 4})
	j.bind(2, BindReq{Component: "Y", Width: 8})
	hist := [][]signal.Bit{{signal.B1}, {signal.B0}}
	j.histories = []history{
		{instance: 2, method: MethodTimingBatch, patterns: func() [][]signal.Bit { return hist }},
		{instance: 1, method: MethodPowerBatch, patterns: func() [][]signal.Bit { return nil }},
		{instance: 1, method: MethodPowerBatch, patterns: func() [][]signal.Bit { return hist[:1] }},
	}

	var got []replayed
	nextInstance := uint64(0)
	err := j.replay(func(method string, args rmi.PortData, reply any) error {
		got = append(got, replayed{method, args})
		if r, ok := reply.(*BindResp); ok {
			// A fresh session hands out instance IDs from 1 again, so a
			// replay in handle order reproduces the original handles.
			nextInstance++
			r.Instance = nextInstance
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	want := []replayed{
		{MethodBind, BindReq{Component: "X", Width: 4}},
		{MethodBind, BindReq{Component: "Y", Width: 8}},
		{MethodBind, BindReq{Component: "Z", Width: 2}},
		{MethodTimingBatch, TimingBatchReq{Instance: 2, Patterns: hist}},
		{MethodPowerBatch, PowerBatchReq{Instance: 1, Patterns: hist[:1]}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}

	// A replayed bind returning a different handle must abort the replay:
	// outstanding BoundInstance stubs would silently point at the wrong
	// provider-side instance.
	calls := 0
	err = j.replay(func(method string, args rmi.PortData, reply any) error {
		calls++
		if r, ok := reply.(*BindResp); ok {
			r.Instance = 99
		}
		return nil
	})
	if err == nil || calls != 1 {
		t.Fatalf("replay after a wrong handle: err = %v after %d calls, want an error after 1", err, calls)
	}

	// A failing call aborts too, a history batch as well as a bind.
	boom := errors.New("boom")
	err = j.replay(func(method string, args rmi.PortData, reply any) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("replay err = %v, want the call error", err)
	}
	nextInstance, calls = 0, 0
	err = j.replay(func(method string, args rmi.PortData, reply any) error {
		calls++
		if r, ok := reply.(*BindResp); ok {
			nextInstance++
			r.Instance = nextInstance
			return nil
		}
		return boom
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Errorf("replay err = %v after %d calls, want the batch error after 4", err, calls)
	}
}

func TestJournalReplayChunksHistory(t *testing.T) {
	hist := make([][]signal.Bit, 2*replayChunk+1)
	for i := range hist {
		hist[i] = []signal.Bit{signal.Bit(i % 2)}
	}
	j := &sessionJournal{}
	j.histories = []history{{instance: 1, method: MethodPowerBatch, patterns: func() [][]signal.Bit { return hist }}}
	var sizes []int
	var joined [][]signal.Bit
	err := j.replay(func(method string, args rmi.PortData, reply any) error {
		req := args.(PowerBatchReq)
		sizes = append(sizes, len(req.Patterns))
		joined = append(joined, req.Patterns...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{replayChunk, replayChunk, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("replayed batch sizes %v, want %v", sizes, want)
	}
	if !reflect.DeepEqual(joined, hist) {
		t.Error("replayed batches do not concatenate back to the history")
	}
}

func TestEnableRecoveryArmsHooksOnce(t *testing.T) {
	c := fakeProvider(t)
	inst, err := c.Bind("Thing", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.journal != nil || inst.OnReplay(MethodPowerBatch, func() [][]signal.Bit { return nil }) {
		t.Fatal("recovery armed before EnableRecovery")
	}
	c.EnableRecovery()
	if c.RPC.Idempotent == nil || c.RPC.OnReconnect == nil {
		t.Fatal("EnableRecovery left RPC hooks unset")
	}
	j := c.journal
	c.EnableRecovery()
	if c.journal != j {
		t.Error("second EnableRecovery replaced the journal")
	}
	if !inst.OnReplay(MethodPowerBatch, func() [][]signal.Bit { return nil }) {
		t.Error("OnReplay reports recovery unarmed after EnableRecovery")
	}
	if len(j.histories) != 1 {
		t.Errorf("journal holds %d histories, want 1", len(j.histories))
	}
}
