package iplib

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/signal"
)

// IPClient is the typed stub layer over one provider session — the
// downloaded RMI stub of the paper's three-part component split. It
// carries no IP: every method is a thin envelope around internal/rmi.
type IPClient struct {
	// RPC is the underlying authenticated client (exposed so callers can
	// set the network profile and meter).
	RPC *rmi.Client

	// journal, when armed via EnableRecovery, replays session state
	// (binds, registered estimation histories) after an automatic
	// reconnect.
	journal *sessionJournal
}

// NewIPClient wraps an authenticated RPC client.
func NewIPClient(rpc *rmi.Client) *IPClient { return &IPClient{RPC: rpc} }

// Catalogue lists the provider's components.
func (c *IPClient) Catalogue() ([]ComponentSpec, error) {
	var resp CatalogueResp
	if err := c.RPC.Call(MethodCatalogue, CatalogueReq{}, &resp); err != nil {
		return nil, err
	}
	return resp.Specs, nil
}

// Bind instantiates a component at the given width with the selected
// models (nil = all offered) and returns the bound instance.
func (c *IPClient) Bind(component string, width int, models []string) (*BoundInstance, error) {
	var resp BindResp
	req := BindReq{Component: component, Width: width, Models: models}
	var ack func()
	if j := c.journal; j != nil {
		// Journaled as the reply arrives, so a reconnect by another
		// caller replays this bind even before Bind returns.
		ack = func() { j.bind(resp.Instance, req) }
	}
	if err := c.RPC.Invoke(MethodBind, req, &resp, true, ack); err != nil {
		return nil, err
	}
	return &BoundInstance{client: c, id: resp.Instance, component: component, width: width, enabled: resp.Enabled}, nil
}

// Negotiate asks the provider for its best admissible offer per
// constraint before binding. Offers[i]/Rejections[i] align with
// constraints[i]; an empty rejection means the offer stands.
func (c *IPClient) Negotiate(component string, constraints []ModelConstraint) (*NegotiateResp, error) {
	var resp NegotiateResp
	req := NegotiateReq{Component: component, Constraints: constraints}
	if err := c.RPC.Call(MethodNegotiate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Fees returns the session's accumulated bill in cents.
func (c *IPClient) Fees() (float64, error) {
	var resp FeesResp
	if err := c.RPC.Call(MethodFees, FeesReq{}, &resp); err != nil {
		return 0, err
	}
	return resp.TotalCents, nil
}

// BoundInstance is one instantiated remote component.
type BoundInstance struct {
	client    *IPClient
	id        uint64
	component string
	width     int
	enabled   []EstimatorOffer
}

// ID returns the provider-side instance handle.
func (b *BoundInstance) ID() uint64 { return b.id }

// Width returns the negotiated instantiation width.
func (b *BoundInstance) Width() int { return b.width }

// Component returns the catalogue name.
func (b *BoundInstance) Component() string { return b.component }

// Enabled returns the estimator offers enabled at bind time.
func (b *BoundInstance) Enabled() []EstimatorOffer {
	return append([]EstimatorOffer(nil), b.enabled...)
}

// Meter returns the session's network meter (nil when unmetered).
func (b *BoundInstance) Meter() *netsim.Meter { return b.client.RPC.Meter }

// Eval evaluates the component functionality remotely (the MR path).
func (b *BoundInstance) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	var resp EvalResp
	err := b.client.RPC.Call(MethodEval, EvalReq{Instance: b.id, Inputs: inputs}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Outputs, nil
}

// BatchRequest is the request envelope of an estimation batch method.
type BatchRequest interface {
	rmi.PortData
	rmi.BinaryAppender
}

// BatchReq builds the request envelope of an estimation batch method,
// MethodPowerBatch or MethodTimingBatch; the timing method has no
// SkipCompute.
func BatchReq(method string, instance uint64, patterns [][]signal.Bit, skipCompute bool) BatchRequest {
	if method == MethodTimingBatch {
		return TimingBatchReq{Instance: instance, Patterns: patterns}
	}
	return PowerBatchReq{Instance: instance, Patterns: patterns, SkipCompute: skipCompute}
}

// EstimateBatch runs a buffered pattern sequence through an estimation
// batch method, MethodPowerBatch (per-pattern power) or MethodTimingBatch
// (per-pattern switching delay, ps). A nonblocking caller waits on a
// worker goroutine, so its wait is not metered as blocked time. ack, when
// non-nil, runs as soon as the provider has answered: before
// EstimateBatch returns and before a reconnect can replay the session
// (see rmi.Client.Invoke).
func (b *BoundInstance) EstimateBatch(method string, patterns [][]signal.Bit, skipCompute, nonblocking bool, ack func()) ([]float64, error) {
	req := BatchReq(method, b.id, patterns, skipCompute)
	if method == MethodTimingBatch {
		var resp TimingBatchResp
		err := b.client.RPC.Invoke(method, req, &resp, !nonblocking, ack)
		return resp.DelayPerPattern, err
	}
	var resp PowerBatchResp
	err := b.client.RPC.Invoke(method, req, &resp, !nonblocking, ack)
	return resp.PowerPerPattern, err
}

// PowerBatch runs the provider's gate-level power estimator over a
// buffered pattern sequence, returning per-pattern power.
func (b *BoundInstance) PowerBatch(patterns [][]signal.Bit, skipCompute bool) ([]float64, error) {
	return b.EstimateBatch(MethodPowerBatch, patterns, skipCompute, false, nil)
}

// TimingBatch runs the provider's input-dependent timing analysis over a
// buffered pattern sequence, returning per-pattern switching delay (ps).
func (b *BoundInstance) TimingBatch(patterns [][]signal.Bit) ([]float64, error) {
	return b.EstimateBatch(MethodTimingBatch, patterns, false, false, nil)
}

// Static returns a static metric computed from the private implementation
// (area in equivalent gates, delay in picoseconds).
func (b *BoundInstance) Static(param string) (float64, error) {
	var resp StaticResp
	if err := b.client.RPC.Call(MethodStatic, StaticReq{Instance: b.id, Param: param}, &resp); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// TestSet purchases a compacted test sequence for the component.
func (b *BoundInstance) TestSet(maxCandidates int, seed int64) (*fault.TestSet, error) {
	var resp TestSetResp
	req := TestSetReq{Instance: b.id, MaxCandidates: maxCandidates, Seed: seed}
	if err := b.client.RPC.Call(MethodTestSet, req, &resp); err != nil {
		return nil, err
	}
	return &fault.TestSet{Patterns: resp.Patterns, Coverage: resp.Coverage}, nil
}

// FaultList implements fault.TestabilityService.
func (b *BoundInstance) FaultList() ([]string, error) {
	var resp FaultListResp
	if err := b.client.RPC.Call(MethodFaultList, FaultListReq{Instance: b.id}, &resp); err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// DetectionTable implements fault.TestabilityService.
func (b *BoundInstance) DetectionTable(inputs []signal.Bit) (*fault.DetectionTable, error) {
	var resp FaultTableResp
	req := FaultTableReq{Instance: b.id, Inputs: inputs}
	if err := b.client.RPC.Call(MethodFaultTable, req, &resp); err != nil {
		return nil, err
	}
	return &resp.Table, nil
}

// compile-time check: a bound instance is a remote testability service.
var _ fault.TestabilityService = (*BoundInstance)(nil)

// String identifies the instance in diagnostics.
func (b *BoundInstance) String() string {
	return fmt.Sprintf("%s#%d(width=%d)", b.component, b.id, b.width)
}
