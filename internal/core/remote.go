// Package core ties gocad together into the paper's headline capability:
// VIRTUAL SIMULATION — the early evaluation of a design comprising
// unpurchased IP components, with accuracy that requires undisclosed
// implementation details. It provides the remote-module proxies that
// instantiate like any local module but execute IP-protected methods on
// the provider's server, the buffered nonblocking remote power estimator,
// the provider-connection helpers, and the AL/ER/MR scenario harness that
// regenerates the paper's Table 2 and Figure 3.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estim"
	"repro/internal/iplib"
	"repro/internal/module"
	"repro/internal/rmi"
	"repro/internal/signal"
)

// wordsToBits appends the bits of the given words LSB-first to dst —
// the component-input pattern layout shared with provider-side netlists
// (operand a in the low bits, operand b above it). Pass nil for a fresh
// buffer; callers that must retain the pattern (the estimator's batch
// buffer) own the result.
func wordsToBits(dst []signal.Bit, words ...signal.Word) []signal.Bit {
	for _, w := range words {
		dst = w.AppendBits(dst)
	}
	return dst
}

// patternPool recycles input-pattern buffers for the synchronous MR
// eval path: the pattern only lives for the duration of one remote
// Eval call (the wire layer copies it into the outbound payload and the
// bound instance does not retain it), while a RemoteMult may be driven
// by several concurrent schedulers (Simulation.StartConcurrent), so the
// scratch is pooled rather than hung off the module.
var patternPool = sync.Pool{New: func() any { return new([]signal.Bit) }}

// RemotePowerEstimator is the paper's remote gate-level power estimator
// with the two optimizations of the performance study:
//
//   - PATTERN BUFFERING: input patterns are accumulated and issued to the
//     provider in batches of BufferSize, amortizing the per-call RMI
//     overhead (the knob of Figure 3);
//   - NONBLOCKING ESTIMATION: batches are dispatched on worker
//     goroutines (the paper's threads), hiding the latency of long
//     gate-level simulator runs behind ongoing event processing.
//
// Per-pattern estimates therefore arrive asynchronously: the estimator
// returns the null value to the estimation engine at token time (the
// sample is recorded as deferred) and accumulates the real values, which
// Report exposes after Close drains the in-flight batches.
type RemotePowerEstimator struct {
	estim.Meta
	inst *iplib.BoundInstance
	// BufferSize is the number of patterns per batch (≥ 1).
	BufferSize int
	// Nonblocking dispatches batches on worker goroutines.
	Nonblocking bool
	// SkipCompute asks the provider to acknowledge batches without
	// running the power simulator (the Figure 3 methodology, isolating
	// RMI overhead from compute).
	SkipCompute bool
	// Fallback, when non-nil, produces estimates after the provider is
	// declared dead (every transport retry and reconnect exhausted); nil
	// degrades to null values — either way the simulation completes with
	// partial estimates instead of aborting.
	Fallback estim.Estimator
	// OnDegrade, when non-nil, is invoked exactly once when the
	// estimator degrades, typically to call estim.Setup.MarkDegraded.
	// It runs with the estimator's lock held; it must not call back into
	// the estimator.
	OnDegrade func(reason string)

	// dispatch, when non-nil, replaces the remote batch call (a test
	// seam).
	dispatch func(batch [][]signal.Bit, skip bool) ([]float64, error)

	// method names the remote batch method, power or timing; it selects
	// the call execBatch makes and seeds the cache fingerprint. reqBuf is
	// the scratch for the cache's bytes-saved accounting, reused under
	// reqMu.
	method string
	reqMu  sync.Mutex
	reqBuf []byte

	// Content-addressed estimation cache (EnableCache). The session
	// carries this estimator's rolling history chain; cacheOff latches
	// when a remote error leaves the provider's simulator state unknown —
	// serving further hits against a diverged history would be unsound,
	// and the latch is PERMANENT for the session: once a transmitted
	// batch is lost, the provider-side history chain has irrecoverably
	// diverged from ours, so no later provider state can be trusted to
	// match our keys again. (Transport faults the rmi layer heals —
	// retry, reconnect, session replay, replica failover — never surface
	// here as errors and leave the cache armed.) cacheEpoch guards the
	// window between a batch's preparation and its commit: a job prepared
	// before a failure must not commit values computed after it.
	cacheStore *EstimationCache
	cache      *cacheSession
	cacheOff   atomic.Bool
	cacheEpoch atomic.Uint64
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	cacheSaved atomic.Int64

	// The pattern log, kept while a cache or session recovery is armed:
	// estimates depend on history, so an instance that skipped patterns
	// (cache hits, a reconnect's fresh session) must execute them before
	// its next answer is right. cursor is the stream position the bound
	// instance has executed up to, and log holds the stream from
	// logBase: cursor, or 0 while recovering (fixed at construction),
	// since a reconnect resets the instance to nothing. acked, the log
	// end of the last reply, bounds the history a reconnect replays.
	logMu      sync.Mutex
	log        [][]signal.Bit
	logBase    int
	cursor     int
	acked      int
	recovering bool

	// Nonblocking batches flow through a single ordered dispatcher
	// goroutine: batches reach the wire — and their results are recorded
	// — in exactly the order the simulation produced them, so pipelined
	// and cached runs are bit-identical to blocking stop-and-wait ones.
	jobsOnce  sync.Once
	jobsClose sync.Once
	jobs      chan batchJob

	mu          sync.Mutex
	buf         [][]signal.Bit
	results     []float64
	errs        []error
	sent        int
	wg          sync.WaitGroup
	closed      bool
	degraded    bool
	lostBatches int
}

// batchJob is one unit of estimator dispatch work, prepared serially (so
// the cache chain advances in simulation order) and executed either
// inline (blocking mode) or by the ordered dispatcher (nonblocking).
type batchJob struct {
	// send is the pattern sequence to transmit — the batch, led by any
	// catch-up prefix; nil for a pure cache hit.
	send [][]signal.Bit
	// vals are the locally resolved values of a cache hit.
	vals []float64
	// n is the batch's own pattern count: every reply keeps its trailing
	// n values.
	n int
	// keys address the batch's values for cache commit.
	keys []cacheKey
	// epoch is the cache-consistency epoch the job was prepared under; a
	// failed batch bumps the epoch, invalidating commits from jobs that
	// straddle the failure.
	epoch uint64
	// end is the log position just past the batch (0 when no log is
	// kept); a reply acknowledges the log up to it.
	end int
}

// NewRemotePowerEstimator builds the estimator from a provider offer.
func NewRemotePowerEstimator(inst *iplib.BoundInstance, offer iplib.EstimatorOffer, bufferSize int, nonblocking bool) *RemotePowerEstimator {
	return newRemoteEstimator(inst, offer, bufferSize, nonblocking, iplib.MethodPowerBatch)
}

// newRemoteEstimator builds an estimator over one remote batch method
// and registers its history for session replay.
func newRemoteEstimator(inst *iplib.BoundInstance, offer iplib.EstimatorOffer, bufferSize int, nonblocking bool, method string) *RemotePowerEstimator {
	if bufferSize < 1 {
		bufferSize = 1
	}
	e := &RemotePowerEstimator{
		Meta: estim.Meta{
			Name:    offer.Name,
			Param:   offer.Parameter(),
			ErrPct:  offer.ErrPct,
			Cost:    offer.CostCents,
			CPUTime: offer.CPUTime(),
			IsRem:   true,
		},
		inst:        inst,
		BufferSize:  bufferSize,
		Nonblocking: nonblocking,
		method:      method,
	}
	e.recovering = inst.OnReplay(method, e.history)
	return e
}

// history returns the patterns the bound instance has acknowledged:
// what a reconnect's fresh session must re-drive before the retried
// in-flight batch, which starts exactly at acked.
func (e *RemotePowerEstimator) history() [][]signal.Bit {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return e.log[:e.acked:e.acked]
}

// reqBytes returns the size of one batch's request payload in the binary
// wire format: the payload tag byte plus the envelope's AppendTo
// encoding. A cache hit counts these bytes as saved.
func (e *RemotePowerEstimator) reqBytes(batch [][]signal.Bit) int {
	req := iplib.BatchReq(e.method, e.inst.ID(), batch, false)
	e.reqMu.Lock()
	defer e.reqMu.Unlock()
	e.reqBuf = req.AppendTo(e.reqBuf[:0])
	return 1 + len(e.reqBuf)
}

// EnableCache attaches a shared content-addressed estimation cache. The
// session chain is seeded with this estimator's setup fingerprint —
// remote method, component, estimator offer, and width — so only runs
// driving the same stimulus into the same setup share entries. Call
// before the first Estimate; a nil store leaves caching disabled.
func (e *RemotePowerEstimator) EnableCache(store *EstimationCache) {
	if store == nil {
		return
	}
	e.cacheStore = store
	fp := fmt.Sprintf("%s|%s|%s|%d", e.method, e.inst.Component(), e.Name, e.inst.Width())
	e.cache = store.newSession(fp)
}

// Estimate implements estim.Estimator: it snapshots the component's input
// pattern into the buffer, flushing a full buffer to the provider, and
// returns the deferred (null) value.
func (e *RemotePowerEstimator) Estimate(ec *estim.EvalContext) (estim.ParamValue, error) {
	var pattern []signal.Bit
	for _, v := range ec.Inputs {
		switch x := v.(type) {
		case signal.WordValue:
			pattern = x.W.AppendBits(pattern)
		case signal.BitValue:
			pattern = append(pattern, x.B)
		case nil:
			return estim.NullValue{}, nil // inputs not yet driven
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: estimator %s used after Close", e.Name)
	}
	if e.degraded {
		// Provider declared dead: serve the fallback estimator locally.
		if e.Fallback != nil {
			v, err := e.Fallback.Estimate(ec)
			e.mu.Unlock()
			return v, err
		}
		e.mu.Unlock()
		return estim.NullValue{}, nil
	}
	e.buf = append(e.buf, pattern)
	var batch [][]signal.Bit
	if len(e.buf) >= e.BufferSize {
		batch = e.takeBatchLocked()
	}
	e.mu.Unlock()
	e.dispatchTaken(batch)
	return estim.NullValue{}, nil
}

// takeBatchLocked removes the pending batch from the buffer and
// registers it in flight; the caller holds e.mu, and must hand the batch
// to dispatchTaken after unlocking. The wg.Add happens here, under the
// lock, so a concurrent Close cannot slip its wg.Wait between the take
// and the dispatch.
func (e *RemotePowerEstimator) takeBatchLocked() [][]signal.Bit {
	if len(e.buf) == 0 {
		return nil
	}
	batch := e.buf
	e.buf = nil
	e.sent += len(batch)
	e.wg.Add(1)
	return batch
}

// dispatchQueueDepth bounds the ordered dispatcher's job backlog; a full
// queue applies backpressure to the simulation thread.
const dispatchQueueDepth = 16

// dispatchTaken runs one batch previously taken by takeBatchLocked and
// balances its wg.Add. It must be called WITHOUT e.mu held: the batch is
// a network round trip (potentially a whole retry-reconnect ladder), and
// holding the lock across it would stall every Estimate call — the
// lockheld-rmi invariant. A nil batch is a no-op.
//
// The cache consult happens here, on the caller's goroutine, because
// Estimate calls arrive in simulation order and the cache chain must
// advance in that same order. The resulting job then executes inline
// (blocking mode) or on the ordered dispatcher (nonblocking mode), which
// preserves batch order end to end: values are recorded exactly as a
// stop-and-wait run would record them.
func (e *RemotePowerEstimator) dispatchTaken(batch [][]signal.Bit) {
	if batch == nil {
		return
	}
	job := e.prepareJob(batch)
	if !e.Nonblocking {
		e.runJob(job)
		return
	}
	e.startDispatcher()
	e.jobs <- job
}

// prepareJob consults the estimation cache for one batch. On a full hit
// the job carries the locally resolved values and nothing goes on the
// wire; otherwise it transmits the batch led by the cache hits the
// instance has not executed, so the provider's stateful simulator sees the
// complete pattern history. With no cache or recovery, no log is kept.
func (e *RemotePowerEstimator) prepareJob(batch [][]signal.Bit) batchJob {
	j := batchJob{send: batch, n: len(batch), epoch: e.cacheEpoch.Load()}
	if e.SkipCompute || (e.cache == nil && !e.recovering) {
		return j
	}
	e.logMu.Lock()
	e.log = append(e.log, batch...)
	j.end = e.logBase + len(e.log)
	e.logMu.Unlock()
	if e.cache != nil && !e.cacheOff.Load() {
		vals, keys, hit := e.cache.lookup(batch)
		if hit {
			saved := e.reqBytes(batch)
			e.cacheHits.Add(1)
			e.cacheSaved.Add(int64(saved))
			e.cacheStore.hits.Add(1)
			e.cacheStore.saved.Add(int64(saved))
			if m := e.inst.Meter(); m != nil {
				m.AddCacheHit(saved)
			}
			return batchJob{vals: vals} // cursor stays behind the hit
		}
		e.cacheMiss.Add(1)
		e.cacheStore.misses.Add(1)
		if m := e.inst.Meter(); m != nil {
			m.AddCacheMiss()
		}
		j.keys = keys
	}
	j.send = e.catchUp(j.end)
	return j
}

// catchUp builds a miss's send: it returns log[cursor:end] and moves
// the cursor to end. Unless recovering, it then trims the executed
// patterns off the log's front. Sends and histories handed out stay
// intact: the log never rewrites a slot, it only reslices its front and
// appends at its end.
func (e *RemotePowerEstimator) catchUp(end int) [][]signal.Bit {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	send := e.log[e.cursor-e.logBase : end-e.logBase : end-e.logBase]
	e.cursor = end
	if !e.recovering {
		e.log = e.log[end-e.logBase:]
		e.logBase = end
	}
	return send
}

// startDispatcher lazily launches the single ordered-dispatch goroutine.
func (e *RemotePowerEstimator) startDispatcher() {
	e.jobsOnce.Do(func() {
		e.jobs = make(chan batchJob, dispatchQueueDepth)
		go func() {
			for j := range e.jobs {
				e.runJob(j)
			}
		}()
	})
}

// runJob executes one prepared job and records its values, balancing the
// batch's wg.Add. Jobs for one estimator run strictly FIFO (inline or on
// the single dispatcher goroutine), so results append in batch order.
func (e *RemotePowerEstimator) runJob(j batchJob) {
	defer e.wg.Done()
	if j.send == nil {
		e.recordBatch(j.vals, nil)
		return
	}
	vals, err := e.execBatch(j)
	if err != nil {
		// The provider's simulator state is now unknown relative to our
		// history chain; later cache hits against it would be unsound —
		// permanently, since a lost batch means the provider-side history
		// can never re-converge with ours. The epoch bump additionally
		// invalidates commits from already-prepared jobs that straddle
		// this failure.
		e.cacheOff.Store(true)
		e.cacheEpoch.Add(1)
		e.recordBatch(nil, err)
		return
	}
	if k := len(vals) - j.n; k > 0 {
		vals = vals[k:] // drop the catch-up values: they were served already
	}
	if e.cache != nil && len(j.keys) > 0 && !e.cacheOff.Load() && j.epoch == e.cacheEpoch.Load() {
		e.cacheStore.commit(j.keys, vals)
	}
	e.recordBatch(vals, nil)
}

// recordBatch takes the lock and records one completed batch.
func (e *RemotePowerEstimator) recordBatch(vals []float64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recordLocked(vals, err)
}

// execBatch runs one job's pattern sequence through the configured remote
// method on the bound instance. In nonblocking mode the call runs on an
// RPC worker and is waited on here, on the dispatcher goroutine — the
// wait is pipelining headroom, not caller-visible blocked time, so it
// stays out of the meter's blocked-time accounting. While recovering,
// the reply acknowledges the log up to the job's end: on the transport's
// receive path, before this call returns and before any reconnect can
// read history.
func (e *RemotePowerEstimator) execBatch(j batchJob) ([]float64, error) {
	batch := j.send
	var ack func()
	if e.recovering {
		ack = func() {
			e.logMu.Lock()
			e.acked = j.end
			e.logMu.Unlock()
		}
	}
	var vals []float64
	var err error
	if e.dispatch != nil {
		if vals, err = e.dispatch(batch, e.SkipCompute); err == nil && ack != nil {
			ack()
		}
	} else {
		vals, err = e.inst.EstimateBatch(e.method, batch, e.SkipCompute, e.Nonblocking, ack)
	}
	// A miscounted reply would shift every later sample: fail the batch.
	// A SkipCompute acknowledgement carries no values.
	if err == nil && len(vals) != len(batch) && !(e.SkipCompute && len(vals) == 0) {
		err = fmt.Errorf("core: estimator %s sent %d patterns, got %d values", e.Name, len(batch), len(vals))
	}
	return vals, err
}

// recordLocked appends batch results; the caller holds e.mu. A batch
// lost to a dead provider degrades the estimator instead of failing the
// run.
func (e *RemotePowerEstimator) recordLocked(vals []float64, err error) {
	if err != nil {
		if errors.Is(err, rmi.ErrProviderDead) {
			e.lostBatches++
			e.degradeLocked(err.Error())
			return
		}
		e.errs = append(e.errs, err)
		return
	}
	e.results = append(e.results, vals...)
}

// degradeLocked flips the estimator into fallback mode (once); the
// caller holds e.mu. Buffered unsent patterns are discarded — their
// estimates will come from the fallback path like all later ones.
func (e *RemotePowerEstimator) degradeLocked(reason string) {
	if e.degraded {
		return
	}
	e.degraded = true
	e.buf = nil
	if e.OnDegrade != nil {
		e.OnDegrade(reason)
	}
}

// Degraded reports whether the estimator has fallen back after its
// provider was declared dead.
func (e *RemotePowerEstimator) Degraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.degraded
}

// Close flushes the remaining partial buffer and waits for every
// in-flight batch. It must be called after the simulation run so Report
// sees all values ("real time" in the scenarios includes this drain).
func (e *RemotePowerEstimator) Close() error {
	e.mu.Lock()
	batch := e.takeBatchLocked()
	e.closed = true
	e.mu.Unlock()
	e.dispatchTaken(batch)
	// The drain is the one nonblocking wait that DOES stall the caller:
	// meter it so the CPU/real decomposition stays honest.
	//lint:ignore simdeterminism the drain is metered wall time for the CPU/real report split; it never feeds signal values.
	start := time.Now()
	e.wg.Wait()
	if m := e.inst.Meter(); m != nil {
		m.AddBlocked(time.Since(start))
	}
	// All jobs are recorded; retire the ordered dispatcher (if it ever
	// started). The empty Do establishes visibility of e.jobs when the
	// dispatcher was started on another goroutine.
	e.jobsOnce.Do(func() {})
	e.jobsClose.Do(func() {
		if e.jobs != nil {
			close(e.jobs)
		}
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.errs) > 0 {
		return fmt.Errorf("core: %d remote estimation batches failed; first: %w", len(e.errs), e.errs[0])
	}
	return nil
}

// Report summarizes the per-pattern power values received so far.
type PowerReport struct {
	Samples   []float64
	Sent      int
	AvgPower  float64
	PeakPower float64
	// Degraded reports that the provider died mid-run and the estimator
	// fell back; LostBatches counts the batches whose values were lost.
	Degraded    bool
	LostBatches int
	// CacheHits/CacheMisses count batch lookups served locally versus sent
	// remote when an estimation cache is enabled (both zero otherwise);
	// CacheBytesSaved counts the request payload bytes the hits kept off
	// the wire, sized in the wire-format-v1 payload encoding.
	CacheHits       int64
	CacheMisses     int64
	CacheBytesSaved int64
}

// Report returns the accumulated remote estimates.
func (e *RemotePowerEstimator) Report() PowerReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := PowerReport{
		Samples: append([]float64(nil), e.results...), Sent: e.sent,
		Degraded: e.degraded, LostBatches: e.lostBatches,
		CacheHits:       e.cacheHits.Load(),
		CacheMisses:     e.cacheMiss.Load(),
		CacheBytesSaved: e.cacheSaved.Load(),
	}
	if len(r.Samples) > 1 {
		sum := 0.0
		for _, v := range r.Samples {
			sum += v
			if v > r.PeakPower {
				r.PeakPower = v
			}
		}
		r.AvgPower = sum / float64(len(r.Samples)-1) // first pattern is free
	}
	return r
}

// NewRemoteTimingEstimator builds a buffered nonblocking estimator over
// the provider's dynamic timing method: the "accurate output timing
// information" the paper's example serves remotely because it needs the
// gate-level structure. It shares the power estimator's buffering and
// drain machinery; SkipCompute is not supported by the timing method and
// is ignored.
func NewRemoteTimingEstimator(inst *iplib.BoundInstance, offer iplib.EstimatorOffer, bufferSize int, nonblocking bool) *RemotePowerEstimator {
	return newRemoteEstimator(inst, offer, bufferSize, nonblocking, iplib.MethodTimingBatch)
}

// RemoteMult is the paper's MULT as a remote module. The instantiation is
// identical to any local module, but cites a bound provider instance. In
// the ER configuration only IP-protected methods (accurate estimation)
// run remotely while the public part computes products locally; with
// FullyRemote set (the MR configuration), every functional evaluation is
// a synchronous remote invocation — each event reaching the module pays
// marshalling and transfer, which is exactly the overhead Table 2
// quantifies.
type RemoteMult struct {
	*module.Skeleton
	a, b, o *module.Port
	width   int
	inst    *iplib.BoundInstance
	// FullyRemote selects the MR behavior.
	FullyRemote bool
	// Delay is the output propagation delay.
	Delay int
	// OnDegrade, when non-nil, is invoked once if the provider dies and
	// functional evaluation degrades to the local public part.
	OnDegrade func(reason string)

	degraded atomic.Bool
}

// NewRemoteMult instantiates the remote multiplier over the connectors,
// bound to a provider instance of matching width.
func NewRemoteMult(name string, width int, a, b, o *module.Connector, inst *iplib.BoundInstance) (*RemoteMult, error) {
	if inst.Width() != width {
		return nil, fmt.Errorf("core: remote instance width %d, design needs %d", inst.Width(), width)
	}
	m := &RemoteMult{width: width, inst: inst, Delay: 1}
	m.Skeleton = module.NewSkeleton(name, m)
	m.a = m.AddPort("a", module.In, width, a)
	m.b = m.AddPort("b", module.In, width, b)
	m.o = m.AddPort("o", module.Out, 2*width, o)
	return m, nil
}

// Instance returns the bound provider instance.
func (m *RemoteMult) Instance() *iplib.BoundInstance { return m.inst }

// ProcessInputEvent computes the product — locally from the public part,
// or remotely when FullyRemote. If the provider is declared dead
// mid-simulation, functional evaluation degrades permanently to the
// local public part (the downloadable functional model remains
// available, so the design keeps simulating with reduced fidelity).
func (m *RemoteMult) ProcessInputEvent(ctx *module.Ctx, ev *module.PortEvent) {
	aw, aok := ctx.InputWordOn(m.a)
	bw, bok := ctx.InputWordOn(m.b)
	if !aok || !bok {
		return
	}
	if m.FullyRemote && !m.degraded.Load() {
		bufp := patternPool.Get().(*[]signal.Bit)
		pattern := wordsToBits((*bufp)[:0], aw, bw)
		out, err := m.inst.Eval(pattern)
		*bufp = pattern[:0]
		patternPool.Put(bufp)
		if err == nil && len(out) != 2*m.width {
			err = fmt.Errorf("provider returned %d output bits, want %d", len(out), 2*m.width)
		}
		if err == nil {
			ctx.Drive(m.o, signal.WordValue{W: signal.WordFromBits(out)}, 1)
			return
		}
		if !errors.Is(err, rmi.ErrProviderDead) {
			panic(fmt.Sprintf("core: remote eval of %s: %v", m.ModuleName(), err))
		}
		if !m.degraded.Swap(true) && m.OnDegrade != nil {
			m.OnDegrade(err.Error())
		}
	}
	av, _ := aw.Uint64()
	bv, _ := bw.Uint64()
	ctx.Drive(m.o, signal.WordValue{W: signal.WordFromUint64(av*bv, 2*m.width)}, 1)
}

// Degraded reports whether remote evaluation has fallen back to the
// local public part.
func (m *RemoteMult) Degraded() bool { return m.degraded.Load() }
