package iplib

import (
	"repro/internal/fault"
	"repro/internal/signal"
)

// Remote method names of the JavaCAD client/server protocol.
const (
	// MethodCatalogue lists the provider's component specs.
	MethodCatalogue = "ip.catalogue"
	// MethodBind instantiates a component for this session at the
	// requested width with the chosen models enabled, and returns an
	// instance handle.
	MethodBind = "ip.bind"
	// MethodEval evaluates the component's functionality remotely — the
	// fully-remote-module (MR) path.
	MethodEval = "ip.eval"
	// MethodPowerBatch runs the provider's accurate gate-level power
	// estimator over a buffer of input patterns.
	MethodPowerBatch = "ip.power.batch"
	// MethodStatic returns a static metric (area, critical-path delay).
	MethodStatic = "ip.static"
	// MethodTimingBatch runs the provider's input-dependent timing
	// analysis over a buffer of patterns (per-pattern switching delay,
	// which needs the gate-level structure and so runs remotely).
	MethodTimingBatch = "ip.timing.batch"
	// MethodFaultList returns the component's symbolic fault list
	// (phase one of virtual fault simulation).
	MethodFaultList = "ip.fault.list"
	// MethodFaultTable returns the detection table for one component
	// input configuration (phase two).
	MethodFaultTable = "ip.fault.table"
	// MethodFees returns the session's accumulated bill.
	MethodFees = "ip.fees"
	// MethodTestSet sells a compacted component test sequence — "a good
	// test sequence is IP that might need protection", so it is served
	// (and billed) rather than derivable by the user.
	MethodTestSet = "ip.testset"
)

// CatalogueReq asks for the provider's catalogue.
type CatalogueReq struct{}

// PortData implements rmi.PortData.
func (CatalogueReq) PortData() []any { return nil }

// CatalogueResp carries the catalogue.
type CatalogueResp struct{ Specs []ComponentSpec }

// PortData implements rmi.PortData.
func (r CatalogueResp) PortData() []any {
	var out []any
	for _, s := range r.Specs {
		out = append(out, s.PortData()...)
	}
	return out
}

// BindReq instantiates a component. Models selects the estimator offers
// to enable (empty = all).
type BindReq struct {
	Component string
	Width     int
	Models    []string
}

// PortData implements rmi.PortData.
func (r BindReq) PortData() []any { return []any{r.Component, r.Width, r.Models} }

// BindResp returns the instance handle, the license fee and the
// enabled models.
type BindResp struct {
	Instance     uint64
	LicenseCents float64
	Enabled      []EstimatorOffer
}

// PortData implements rmi.PortData.
func (r BindResp) PortData() []any {
	out := []any{r.Instance, r.LicenseCents}
	for _, e := range r.Enabled {
		out = append(out, e.Name, e.Param, e.ErrPct, e.CostCents, e.CPUTimeMS, e.Remote)
	}
	return out
}

// EvalReq evaluates the instance's functionality over component inputs.
type EvalReq struct {
	Instance uint64
	Inputs   []signal.Bit
}

// PortData implements rmi.PortData.
func (r EvalReq) PortData() []any { return []any{r.Instance, r.Inputs} }

// EvalResp returns the component outputs.
type EvalResp struct{ Outputs []signal.Bit }

// PortData implements rmi.PortData.
func (r EvalResp) PortData() []any { return []any{r.Outputs} }

// PowerBatchReq carries a buffer of component input patterns for the
// provider's gate-level power estimator. SkipCompute reproduces the
// Figure 3 methodology: the provider acknowledges the batch without
// running the power simulator, so the measured cost is pure RMI overhead.
type PowerBatchReq struct {
	Instance    uint64
	Patterns    [][]signal.Bit
	SkipCompute bool
}

// PortData implements rmi.PortData.
func (r PowerBatchReq) PortData() []any { return []any{r.Instance, r.Patterns, r.SkipCompute} }

// PowerBatchResp returns per-pattern power values (empty when the batch
// was acknowledged with SkipCompute).
type PowerBatchResp struct {
	PowerPerPattern []float64
	FeeCents        float64
}

// PortData implements rmi.PortData.
func (r PowerBatchResp) PortData() []any { return []any{r.PowerPerPattern, r.FeeCents} }

// TimingBatchReq carries a buffer of component input patterns for the
// provider's dynamic timing analysis.
type TimingBatchReq struct {
	Instance uint64
	Patterns [][]signal.Bit
}

// PortData implements rmi.PortData.
func (r TimingBatchReq) PortData() []any { return []any{r.Instance, r.Patterns} }

// TimingBatchResp returns per-pattern switching delays in picoseconds.
type TimingBatchResp struct {
	DelayPerPattern []float64
	FeeCents        float64
}

// PortData implements rmi.PortData.
func (r TimingBatchResp) PortData() []any { return []any{r.DelayPerPattern, r.FeeCents} }

// StaticReq asks for a static metric of the instance.
type StaticReq struct {
	Instance uint64
	Param    string // "area" or "delay"
}

// PortData implements rmi.PortData.
func (r StaticReq) PortData() []any { return []any{r.Instance, r.Param} }

// StaticResp returns the metric value.
type StaticResp struct{ Value float64 }

// PortData implements rmi.PortData.
func (r StaticResp) PortData() []any { return []any{r.Value} }

// FaultListReq asks for the instance's symbolic fault list.
type FaultListReq struct{ Instance uint64 }

// PortData implements rmi.PortData.
func (r FaultListReq) PortData() []any { return []any{r.Instance} }

// FaultListResp carries the symbolic names (and nothing else).
type FaultListResp struct{ Names []string }

// PortData implements rmi.PortData.
func (r FaultListResp) PortData() []any { return []any{r.Names} }

// FaultTableReq asks for the detection table at one input configuration.
type FaultTableReq struct {
	Instance uint64
	Inputs   []signal.Bit
}

// PortData implements rmi.PortData.
func (r FaultTableReq) PortData() []any { return []any{r.Instance, r.Inputs} }

// FaultTableResp carries the detection table: erroneous output patterns
// and symbolic fault names — exactly the information the paper's protocol
// discloses, no more.
type FaultTableResp struct{ Table fault.DetectionTable }

// PortData implements rmi.PortData.
func (r FaultTableResp) PortData() []any {
	out := []any{r.Table.Input, r.Table.FaultFree}
	for _, row := range r.Table.Rows {
		out = append(out, row.Output, row.Faults)
	}
	return out
}

// TestSetReq asks for a compacted test sequence for the instance.
type TestSetReq struct {
	Instance      uint64
	MaxCandidates int
	Seed          int64
}

// PortData implements rmi.PortData.
func (r TestSetReq) PortData() []any { return []any{r.Instance, r.MaxCandidates, r.Seed} }

// TestSetResp carries the purchased test sequence: component input
// patterns and the coverage they achieve (against the provider's private
// fault list — the user can verify the claim through virtual fault
// simulation).
type TestSetResp struct {
	Patterns [][]signal.Bit
	Coverage float64
	FeeCents float64
}

// PortData implements rmi.PortData.
func (r TestSetResp) PortData() []any { return []any{r.Patterns, r.Coverage, r.FeeCents} }

// FeesReq asks for the session bill.
type FeesReq struct{}

// PortData implements rmi.PortData.
func (FeesReq) PortData() []any { return nil }

// FeesResp returns the accumulated bill in cents.
type FeesResp struct{ TotalCents float64 }

// PortData implements rmi.PortData.
func (r FeesResp) PortData() []any { return []any{r.TotalCents} }
