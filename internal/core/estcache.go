package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/signal"
)

// cacheKey is a content-addressed identity: the SHA-256 of an estimation
// setup and the full pattern history up to (and including) one pattern.
type cacheKey [sha256.Size]byte

// EstimationCache is a client-side content-addressed cache of remote
// per-pattern estimation results. The provider's accurate estimators are
// STATEFUL — a pattern's power depends on the pattern history driven
// into the instance — so entries are not keyed by the pattern alone but
// by a rolling hash chain over (method, setup fingerprint, every pattern
// since bind). Two runs that drive the same stimulus into the same
// component therefore address the same entries, regardless of how their
// buffers batch the stream, while any divergence in history changes
// every subsequent key and can never alias.
//
// A cache is safe for concurrent use and meant to be SHARED — across the
// Table 2 grid cells (same seed, three network profiles), across
// repeated Figure 3 sweeps, across processes of one design session via
// whatever scope the caller wires it into. Repeat batches short-circuit
// locally: no wire traffic, no provider fee, identical values.
type EstimationCache struct {
	mu     sync.Mutex
	values map[cacheKey]float64

	hits   atomic.Int64
	misses atomic.Int64
	saved  atomic.Int64
}

// NewEstimationCache returns an empty cache.
func NewEstimationCache() *EstimationCache {
	return &EstimationCache{values: make(map[cacheKey]float64)}
}

// Hits returns the number of batches served locally.
func (c *EstimationCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of batch lookups that went remote.
func (c *EstimationCache) Misses() int64 { return c.misses.Load() }

// BytesSaved returns the approximate request bytes kept off the wire.
func (c *EstimationCache) BytesSaved() int64 { return c.saved.Load() }

// Size returns the number of cached per-pattern values.
func (c *EstimationCache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.values)
}

// commit stores per-pattern values under their chain keys.
func (c *EstimationCache) commit(keys []cacheKey, vals []float64) {
	if len(keys) != len(vals) {
		return // provider returned an unexpected shape; cache nothing
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, k := range keys {
		c.values[k] = vals[i]
	}
}

// chainNext absorbs one pattern into the rolling history hash.
func chainNext(chain cacheKey, pattern []signal.Bit) cacheKey {
	h := sha256.New()
	h.Write(chain[:])
	b := make([]byte, len(pattern))
	for i, bit := range pattern {
		b[i] = byte(bit)
	}
	h.Write(b)
	var out cacheKey
	h.Sum(out[:0])
	return out
}

// cacheSession is one estimator's view of a shared EstimationCache: the
// rolling chain over its own pattern history. A session is used serially
// by its estimator's dispatch path; the patterns a hit kept off the wire
// stay in the estimator's pattern log until the next miss carries them.
type cacheSession struct {
	cache *EstimationCache
	chain cacheKey
}

// newSession opens a session whose chain is seeded with the estimation
// setup fingerprint (method, component, estimator, width).
func (c *EstimationCache) newSession(fingerprint string) *cacheSession {
	return &cacheSession{cache: c, chain: sha256.Sum256([]byte(fingerprint))}
}

// lookup advances the chain through batch and reports whether EVERY
// pattern's value is cached (all-or-nothing: partial hits still pay the
// round trip, and the full batch is transmitted for provider-state
// consistency). The returned keys address the batch's patterns for a
// later commit.
func (s *cacheSession) lookup(batch [][]signal.Bit) (vals []float64, keys []cacheKey, hit bool) {
	keys = make([]cacheKey, len(batch))
	ch := s.chain
	for i, p := range batch {
		ch = chainNext(ch, p)
		keys[i] = ch
	}
	s.chain = ch
	vals = make([]float64, len(batch))
	hit = true
	s.cache.mu.Lock()
	for i, k := range keys {
		v, ok := s.cache.values[k]
		if !ok {
			hit = false
			break
		}
		vals[i] = v
	}
	s.cache.mu.Unlock()
	if !hit {
		return nil, keys, false
	}
	return vals, keys, true
}
