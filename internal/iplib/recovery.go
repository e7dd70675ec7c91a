package iplib

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/rmi"
	"repro/internal/signal"
)

// Idempotent reports whether an RMI method of the IP protocol may safely
// be re-invoked after an ambiguous transport failure (the request may or
// may not have executed server-side). The rules per method:
//
//   - Pure reads (catalogue, fees, static, fault.list) are
//     idempotent.
//   - Deterministic computations (eval, power.batch, timing.batch,
//     fault.table) are idempotent for results; a duplicate execution can
//     double-bill usage fees, which providers tolerate (per-pattern fees
//     are small) — at-most-once billing is not guaranteed under retry.
//   - bind mutates session state (allocates an instance handle, charges
//     a license); testset sells a priced artifact. Neither is retried
//     blindly; bind is re-established only by deliberate session replay.
func Idempotent(method string) bool {
	switch method {
	case MethodCatalogue, MethodFees, MethodStatic,
		MethodFaultList, MethodFaultTable, MethodEval,
		MethodPowerBatch, MethodTimingBatch:
		return true
	}
	return false
}

// replayChunk bounds the patterns per replayed batch: a long history
// goes out as several frames, each far below the wire's frame-size cap.
const replayChunk = 4096

// history is one estimation history registered through
// BoundInstance.OnReplay.
type history struct {
	instance uint64
	method   string
	patterns func() [][]signal.Bit
}

// bound is one successful bind: the request and the instance handle it
// returned.
type bound struct {
	id  uint64
	req BindReq
}

// sessionJournal re-establishes provider session state on a fresh
// connection. It keeps only the successful binds; the estimation history
// — the provider's gate-level simulators are stateful, each pattern's
// value depends on the previous pattern — is not copied here but read
// back from the estimators that own it, through the histories they
// register.
type sessionJournal struct {
	mu        sync.Mutex
	binds     []bound
	histories []history
}

// bind journals one successful bind.
func (j *sessionJournal) bind(id uint64, req BindReq) {
	j.mu.Lock()
	j.binds = append(j.binds, bound{id, req})
	j.mu.Unlock()
}

// replay re-establishes the session on a fresh connection. It re-issues
// the binds in instance-handle order: the provider numbers instances from
// a per-session counter, so the replay reproduces the original handles.
// It then re-drives every registered history, in chunks of replayChunk
// patterns. Any failure aborts the replay — the transport layer treats it
// as a failed reconnect and backs off.
func (j *sessionJournal) replay(do func(method string, args rmi.PortData, reply any) error) error {
	j.mu.Lock()
	binds, hists := slices.Clone(j.binds), slices.Clone(j.histories)
	j.mu.Unlock()
	slices.SortFunc(binds, func(a, b bound) int { return cmp.Compare(a.id, b.id) })
	for _, b := range binds {
		var resp BindResp
		if err := do(MethodBind, b.req, &resp); err != nil {
			return err
		}
		if resp.Instance != b.id {
			return fmt.Errorf("iplib: replayed bind returned instance %d, original was %d", resp.Instance, b.id)
		}
	}
	for _, h := range hists {
		for pats := h.patterns(); len(pats) > 0; {
			chunk := pats[:min(len(pats), replayChunk)]
			pats = pats[len(chunk):]
			if err := do(h.method, BatchReq(h.method, h.instance, chunk, false), nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnableRecovery arms transparent session re-establishment on the
// underlying RPC client: the protocol's idempotency table gates retry,
// and after every automatic reconnect the session journal replays the
// binds made from then on and the estimation histories registered
// through OnReplay, so a provider connection killed mid-simulation heals
// with results identical to a fault-free run. The replayed session is
// billed afresh by the provider (fees restart with the new session).
func (c *IPClient) EnableRecovery() {
	if c.journal != nil {
		return
	}
	j := &sessionJournal{}
	c.journal = j
	c.RPC.Idempotent = Idempotent
	c.RPC.OnReconnect = j.replay
}

// OnReplay registers the estimation history of this instance for one
// batch method (MethodPowerBatch or MethodTimingBatch): after every
// reconnect, the patterns the callback returns are re-driven through the
// fresh session's instance. It reports whether recovery is armed; when it
// is not, nothing is registered and the caller need keep no history.
func (b *BoundInstance) OnReplay(method string, patterns func() [][]signal.Bit) bool {
	j := b.client.journal
	if j == nil {
		return false
	}
	j.mu.Lock()
	j.histories = append(j.histories, history{instance: b.id, method: method, patterns: patterns})
	j.mu.Unlock()
	return true
}
