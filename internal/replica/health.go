package replica

import (
	"sync"
	"time"
)

// ewmaAlpha weights the newest latency sample in the moving average:
// small enough to smooth per-call jitter, large enough that a handful of
// slow round trips visibly moves the estimate.
const ewmaAlpha = 0.2

// Health is one replica's latency and failure accounting, fed by the
// rmi per-attempt hook. It is observability state only — routing
// decisions belong to the Breaker — and Set.Statuses reports the EWMA
// to operators.
type Health struct {
	mu          sync.Mutex
	ewma        float64 // smoothed round-trip time, in nanoseconds
	samples     int64
	consecFails int
	failures    int64
	successes   int64
}

// Observe feeds one attempt outcome. rtt is ignored for failed attempts
// (and for successes reported without a measurement, rtt <= 0).
func (h *Health) Observe(rtt time.Duration, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.failures++
		h.consecFails++
		return
	}
	h.successes++
	h.consecFails = 0
	if rtt <= 0 {
		return
	}
	h.samples++
	if h.samples == 1 {
		h.ewma = float64(rtt)
	} else {
		h.ewma = ewmaAlpha*float64(rtt) + (1-ewmaAlpha)*h.ewma
	}
}

// EWMALatency returns the smoothed round-trip estimate (0 before the
// first measured success).
func (h *Health) EWMALatency() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.ewma)
}

// ConsecutiveFailures returns the current failure streak.
func (h *Health) ConsecutiveFailures() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consecFails
}

// Counts returns lifetime success/failure totals.
func (h *Health) Counts() (successes, failures int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.successes, h.failures
}
