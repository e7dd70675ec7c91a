package iplib

// PortValueCount implementations (rmi.PortCounter) for every protocol
// envelope. Each returns exactly the value total the marshalling
// policy's canonical walk computes over PortData(), letting the RMI
// outbound check skip the []any boxing on the hot path. The envelope
// tests cross-check every count against security.ValueCount, so the two
// definitions cannot drift silently.

import "repro/internal/signal"

// patternsValueCount totals a pattern batch ([][]signal.Bit counts one
// value per bit).
func patternsValueCount(patterns [][]signal.Bit) int {
	n := 0
	for _, p := range patterns {
		n += len(p)
	}
	return n
}

// offersValueCount totals a slice of EstimatorOffer (six scalar fields
// each, matching the PortData flattening).
func offersValueCount(offers []EstimatorOffer) int { return 6 * len(offers) }

// PortValueCount implements rmi.PortCounter.
func (CatalogueReq) PortValueCount() int { return 0 }

// PortValueCount implements rmi.PortCounter.
func (r CatalogueResp) PortValueCount() int {
	n := 0
	for _, s := range r.Specs {
		n += s.PortValueCount()
	}
	return n
}

// PortValueCount implements rmi.PortCounter.
func (s ComponentSpec) PortValueCount() int { return 7 + offersValueCount(s.Estimators) }

// PortValueCount implements rmi.PortCounter.
func (r BindReq) PortValueCount() int { return 2 + len(r.Models) }

// PortValueCount implements rmi.PortCounter.
func (r BindResp) PortValueCount() int { return 2 + offersValueCount(r.Enabled) }

// PortValueCount implements rmi.PortCounter.
func (r EvalReq) PortValueCount() int { return 1 + len(r.Inputs) }

// PortValueCount implements rmi.PortCounter.
func (r EvalResp) PortValueCount() int { return len(r.Outputs) }

// PortValueCount implements rmi.PortCounter.
func (r PowerBatchReq) PortValueCount() int { return 2 + patternsValueCount(r.Patterns) }

// PortValueCount implements rmi.PortCounter.
func (r PowerBatchResp) PortValueCount() int { return 1 + len(r.PowerPerPattern) }

// PortValueCount implements rmi.PortCounter.
func (r TimingBatchReq) PortValueCount() int { return 1 + patternsValueCount(r.Patterns) }

// PortValueCount implements rmi.PortCounter.
func (r TimingBatchResp) PortValueCount() int { return 1 + len(r.DelayPerPattern) }

// PortValueCount implements rmi.PortCounter.
func (r StaticReq) PortValueCount() int { return 2 }

// PortValueCount implements rmi.PortCounter.
func (StaticResp) PortValueCount() int { return 1 }

// PortValueCount implements rmi.PortCounter.
func (FaultListReq) PortValueCount() int { return 1 }

// PortValueCount implements rmi.PortCounter.
func (r FaultListResp) PortValueCount() int { return len(r.Names) }

// PortValueCount implements rmi.PortCounter.
func (r FaultTableReq) PortValueCount() int { return 1 + len(r.Inputs) }

// PortValueCount implements rmi.PortCounter.
func (r FaultTableResp) PortValueCount() int {
	n := r.Table.Input.Width() + r.Table.FaultFree.Width()
	for _, row := range r.Table.Rows {
		n += row.Output.Width() + len(row.Faults)
	}
	return n
}

// PortValueCount implements rmi.PortCounter.
func (TestSetReq) PortValueCount() int { return 3 }

// PortValueCount implements rmi.PortCounter.
func (r TestSetResp) PortValueCount() int { return 2 + patternsValueCount(r.Patterns) }

// PortValueCount implements rmi.PortCounter.
func (FeesReq) PortValueCount() int { return 0 }

// PortValueCount implements rmi.PortCounter.
func (FeesResp) PortValueCount() int { return 1 }
