package gateway

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/security"
)

// TenantSpec is one tenant's contract with the provider: identity, the
// shared HMAC session key, and the limits the gateway enforces on its
// behalf. Zero limit fields inherit the gateway's defaults (conns) or
// mean unlimited (rates, ceiling).
type TenantSpec struct {
	// Name is the tenant identity — the client name its sessions
	// authenticate as.
	Name string `json:"name"`
	// Key is the hex-encoded shared session key (security.Key).
	Key string `json:"key"`
	// MaxConns bounds the tenant's concurrent sessions; 0 inherits
	// Config.MaxConnsPerTenant.
	MaxConns int `json:"maxConns,omitempty"`
	// CallsPerSec token-bucket-throttles the tenant's request rate;
	// 0 means unthrottled.
	CallsPerSec float64 `json:"callsPerSec,omitempty"`
	// BytesPerSec token-bucket-throttles the tenant's inbound payload
	// bytes; 0 means unthrottled.
	BytesPerSec float64 `json:"bytesPerSec,omitempty"`
	// FeeCeilingCents caps the tenant's aggregate usage fees: once
	// crossed, further calls fail with a typed over-quota error (the
	// sessions themselves stay up — the client surfaces the error
	// without poisoning unrelated tenants). 0 means unlimited.
	FeeCeilingCents float64 `json:"feeCeilingCents,omitempty"`
}

// SessionKey decodes the tenant's hex session key.
func (t TenantSpec) SessionKey() (security.Key, error) {
	k, err := hex.DecodeString(t.Key)
	if err != nil {
		return nil, fmt.Errorf("gateway: tenant %q: bad key hex: %w", t.Name, err)
	}
	if len(k) == 0 {
		return nil, fmt.Errorf("gateway: tenant %q: empty key", t.Name)
	}
	return security.Key(k), nil
}

// tenantConfig is the on-disk shape of a -tenant-config file.
type tenantConfig struct {
	Tenants []TenantSpec `json:"tenants"`
}

// LoadTenantConfig reads a tenant config file (JSON: {"tenants":[...]}).
func LoadTenantConfig(path string) ([]TenantSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg tenantConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("gateway: tenant config %s: %w", path, err)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: tenant config %s: no tenants", path)
	}
	seen := make(map[string]bool, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("gateway: tenant config %s: tenant with empty name", path)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("gateway: tenant config %s: duplicate tenant %q", path, t.Name)
		}
		seen[t.Name] = true
		if _, err := t.SessionKey(); err != nil {
			return nil, err
		}
	}
	return cfg.Tenants, nil
}

// Meter is a snapshot of one tenant's usage accounting. FeeCents
// reconciles exactly with the billing ledger: every cent in the meter
// was appended to the ledger as a session fee delta, and vice versa.
type Meter struct {
	Tenant string
	// Sessions counts admitted sessions over the gateway's lifetime;
	// ActiveConns is the current gauge.
	Sessions    int64
	ActiveConns int
	// Calls / FailedCalls count dispatched requests; BytesIn sums their
	// payload bytes.
	Calls       int64
	FailedCalls int64
	BytesIn     int64
	// FeeCents aggregates the usage fees charged across the tenant's
	// sessions (the sess.Charge stream, sampled per call).
	FeeCents float64
	// RejectedConns counts admission rejections attributed to this
	// tenant (its own connection limit); OverQuota counts calls refused
	// at the fee ceiling.
	RejectedConns int64
	OverQuota     int64
	// Throttled is the cumulative time the tenant's calls spent waiting
	// in its rate-limit buckets.
	Throttled time.Duration
}

// tenantState is the gateway's live record for one tenant.
type tenantState struct {
	spec       TenantSpec
	maxConns   int
	callBucket *bucket
	byteBucket *bucket

	mu       sync.Mutex
	conns    int     // active sessions (reserved at Admit, released at SessionClose)
	sessions int64   // lifetime admitted sessions
	calls    int64   // dispatched requests
	failed   int64   // dispatched requests that returned an error
	bytesIn  int64   // request payload bytes
	feeCents float64 // aggregate fees, ledger-reconciled
	rejects  int64   // admission rejections (tenant conn limit)
	over     int64   // over-quota call refusals
	throttle time.Duration
	lastFees map[string]float64 // session ID → last sampled sess.Fees()
}

// newTenantState builds the live record from a spec and the gateway's
// per-tenant defaults.
func newTenantState(spec TenantSpec, defaultMaxConns int) *tenantState {
	maxConns := spec.MaxConns
	if maxConns <= 0 {
		maxConns = defaultMaxConns
	}
	ts := &tenantState{
		spec:     spec,
		maxConns: maxConns,
		lastFees: make(map[string]float64),
	}
	if spec.CallsPerSec > 0 {
		ts.callBucket = newBucket(spec.CallsPerSec, spec.CallsPerSec)
	}
	if spec.BytesPerSec > 0 {
		ts.byteBucket = newBucket(spec.BytesPerSec, spec.BytesPerSec)
	}
	return ts
}

// meter snapshots the tenant's accounting.
func (ts *tenantState) meter() Meter {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return Meter{
		Tenant:        ts.spec.Name,
		Sessions:      ts.sessions,
		ActiveConns:   ts.conns,
		Calls:         ts.calls,
		FailedCalls:   ts.failed,
		BytesIn:       ts.bytesIn,
		FeeCents:      ts.feeCents,
		RejectedConns: ts.rejects,
		OverQuota:     ts.over,
		Throttled:     ts.throttle,
	}
}
