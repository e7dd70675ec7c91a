package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the cumulative histogram bounds (seconds) for
// per-frame dispatch latency, 100µs to 10s on a coarse log scale.
var latencyBuckets = [numLatencyBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

const numLatencyBuckets = 16

// histogram is a fixed-bucket latency histogram on atomic counters.
type histogram struct {
	counts  [numLatencyBuckets + 1]atomic.Int64 // +1 for +Inf
	sumNano atomic.Int64
	total   atomic.Int64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNano.Add(int64(d))
	h.total.Add(1)
}

// metrics is the gateway-wide counter set. Per-tenant counters live on
// tenantState; this struct holds what is global: admission outcomes,
// queue depths, call volume, and the frame latency histogram.
type metrics struct {
	admitted     atomic.Int64 // sessions admitted (Admit accepted)
	rejectedCap  atomic.Int64 // rejections: server at MaxSessions
	rejectedTen  atomic.Int64 // rejections: tenant at its conn limit
	rejectedFull atomic.Int64 // rejections: accept queue overflow
	rejectedDrn  atomic.Int64 // rejections: draining
	calls        atomic.Int64
	callsFailed  atomic.Int64
	overQuota    atomic.Int64
	bytesIn      atomic.Int64
	ledgerErrs   atomic.Int64
	latency      histogram
}

// WriteMetrics renders the gateway's state in Prometheus text
// exposition format — the /metrics endpoint body. Tenants render in
// sorted order so scrapes are deterministic.
func (g *Gateway) WriteMetrics(w io.Writer) error {
	m := &g.metrics
	active, queued := g.occupancy()
	var b []byte
	line := func(format string, args ...any) {
		b = fmt.Appendf(b, format, args...)
		b = append(b, '\n')
	}

	line("# HELP gocad_gateway_sessions_active Currently admitted sessions.")
	line("# TYPE gocad_gateway_sessions_active gauge")
	line("gocad_gateway_sessions_active %d", active)
	line("# HELP gocad_gateway_accept_queue_depth Connections inside the bounded accept queue (handshaking or serving beyond admitted sessions).")
	line("# TYPE gocad_gateway_accept_queue_depth gauge")
	line("gocad_gateway_accept_queue_depth %d", queued)
	line("# HELP gocad_gateway_admissions_total Sessions admitted by admission control.")
	line("# TYPE gocad_gateway_admissions_total counter")
	line("gocad_gateway_admissions_total %d", m.admitted.Load())
	line("# HELP gocad_gateway_rejections_total Connections refused by admission control, by typed reason.")
	line("# TYPE gocad_gateway_rejections_total counter")
	line("gocad_gateway_rejections_total{reason=%q} %d", string(ReasonOverCapacity), m.rejectedCap.Load())
	line("gocad_gateway_rejections_total{reason=%q} %d", string(ReasonTenantConns), m.rejectedTen.Load())
	line("gocad_gateway_rejections_total{reason=%q} %d", string(ReasonQueueFull), m.rejectedFull.Load())
	line("gocad_gateway_rejections_total{reason=%q} %d", string(ReasonDraining), m.rejectedDrn.Load())
	line("# HELP gocad_gateway_calls_total Requests dispatched through the gateway.")
	line("# TYPE gocad_gateway_calls_total counter")
	line("gocad_gateway_calls_total %d", m.calls.Load())
	line("# HELP gocad_gateway_calls_failed_total Dispatched requests that returned an error.")
	line("# TYPE gocad_gateway_calls_failed_total counter")
	line("gocad_gateway_calls_failed_total %d", m.callsFailed.Load())
	line("# HELP gocad_gateway_over_quota_total Calls refused at a tenant fee ceiling.")
	line("# TYPE gocad_gateway_over_quota_total counter")
	line("gocad_gateway_over_quota_total %d", m.overQuota.Load())
	line("# HELP gocad_gateway_request_bytes_total Request payload bytes dispatched.")
	line("# TYPE gocad_gateway_request_bytes_total counter")
	line("gocad_gateway_request_bytes_total %d", m.bytesIn.Load())
	line("# HELP gocad_gateway_ledger_errors_total Billing ledger append failures.")
	line("# TYPE gocad_gateway_ledger_errors_total counter")
	line("gocad_gateway_ledger_errors_total %d", m.ledgerErrs.Load())
	line("# HELP gocad_gateway_ledger_entries_total Billing ledger records appended.")
	line("# TYPE gocad_gateway_ledger_entries_total counter")
	line("gocad_gateway_ledger_entries_total %d", g.ledger.Entries())

	meters := g.Meters()
	sort.Slice(meters, func(i, j int) bool { return meters[i].Tenant < meters[j].Tenant })
	line("# HELP gocad_gateway_tenant_sessions_total Admitted sessions per tenant.")
	line("# TYPE gocad_gateway_tenant_sessions_total counter")
	for _, t := range meters {
		line("gocad_gateway_tenant_sessions_total{tenant=%q} %d", t.Tenant, t.Sessions)
	}
	line("# HELP gocad_gateway_tenant_conns Active sessions per tenant.")
	line("# TYPE gocad_gateway_tenant_conns gauge")
	for _, t := range meters {
		line("gocad_gateway_tenant_conns{tenant=%q} %d", t.Tenant, t.ActiveConns)
	}
	line("# HELP gocad_gateway_tenant_calls_total Dispatched requests per tenant.")
	line("# TYPE gocad_gateway_tenant_calls_total counter")
	for _, t := range meters {
		line("gocad_gateway_tenant_calls_total{tenant=%q} %d", t.Tenant, t.Calls)
	}
	line("# HELP gocad_gateway_tenant_fee_cents_total Usage fees metered per tenant, in cents (ledger-reconciled).")
	line("# TYPE gocad_gateway_tenant_fee_cents_total counter")
	for _, t := range meters {
		line("gocad_gateway_tenant_fee_cents_total{tenant=%q} %g", t.Tenant, t.FeeCents)
	}
	line("# HELP gocad_gateway_tenant_over_quota_total Over-quota call refusals per tenant.")
	line("# TYPE gocad_gateway_tenant_over_quota_total counter")
	for _, t := range meters {
		line("gocad_gateway_tenant_over_quota_total{tenant=%q} %d", t.Tenant, t.OverQuota)
	}
	line("# HELP gocad_gateway_tenant_throttle_seconds_total Time spent waiting in per-tenant rate-limit buckets.")
	line("# TYPE gocad_gateway_tenant_throttle_seconds_total counter")
	for _, t := range meters {
		line("gocad_gateway_tenant_throttle_seconds_total{tenant=%q} %g", t.Tenant, t.Throttled.Seconds())
	}

	line("# HELP gocad_gateway_frame_latency_seconds Dispatch latency per request frame (decode to response ready).")
	line("# TYPE gocad_gateway_frame_latency_seconds histogram")
	var cum int64
	for i, le := range latencyBuckets {
		cum += m.latency.counts[i].Load()
		line("gocad_gateway_frame_latency_seconds_bucket{le=%q} %d", fmt.Sprintf("%g", le), cum)
	}
	cum += m.latency.counts[len(latencyBuckets)].Load()
	line(`gocad_gateway_frame_latency_seconds_bucket{le="+Inf"} %d`, cum)
	line("gocad_gateway_frame_latency_seconds_sum %g", time.Duration(m.latency.sumNano.Load()).Seconds())
	line("gocad_gateway_frame_latency_seconds_count %d", m.latency.total.Load())

	_, err := w.Write(b)
	return err
}
