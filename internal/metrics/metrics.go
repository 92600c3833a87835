// Package metrics is the runtime observability layer: low-overhead,
// concurrency-safe counters, gauges, quantile sketches, and an event
// tracer that the runtime (internal/rt), the software cache
// (internal/cache), and the traversal engines (internal/traverse) report
// into. It reproduces the kind of built-in per-phase, per-worker
// accounting the paper's evaluation is made of — cache hit ratios
// (Fig 3), per-phase utilization (Fig 9), traversal open/prune volumes —
// without ad-hoc printf instrumentation.
//
// The layer is disabled by default and must cost (nearly) nothing then:
// a nil *Registry is a valid, fully disabled registry, and every handle
// it hands out (nil *Counter, nil *Sketch, nil *Tracer) is safe to
// call. Producers resolve their handles once at construction time, so the
// disabled hot path is a single nil/bool check. Counters are sharded
// across cache-line-padded cells to keep enabled-mode contention low;
// callers pass any cheap shard hint (worker id, proc rank, partition id).
package metrics

import (
	"sync"
	"sync/atomic"
)

// Canonical instrument names wired by the runtime layers. Applications may
// register additional names freely; these are the ones the framework
// itself maintains and the ones tests and EXPERIMENTS tooling rely on.
const (
	// CTraverseVisits counts traversal frame evaluations.
	CTraverseVisits = "traverse.visits"
	// CTraverseOpens counts Open()/cell() decisions that opened a node.
	CTraverseOpens = "traverse.opens"
	// CTraversePrunes counts Open()/cell() decisions that pruned
	// (approximated) a node.
	CTraversePrunes = "traverse.prunes"
	// CTraverseParks counts traversal frames parked on a remote
	// placeholder's waiter list.
	CTraverseParks = "traverse.parks"
	// CTraverseResumes counts parked frames resumed after a fill.
	CTraverseResumes = "traverse.resumes"

	// CCacheHits counts traversal visits to remote-origin nodes whose data
	// was already present locally (shared top nodes or fetched fills).
	CCacheHits = "cache.hits"
	// CCacheMisses counts traversal visits to placeholders whose data had
	// to be fetched (or waited on) before the frame could proceed.
	CCacheMisses = "cache.misses"
	// CCacheFetches counts unique fetch round-trips issued (one per node
	// per view).
	CCacheFetches = "cache.fetches"
	// CCacheFills counts fill messages received.
	CCacheFills = "cache.fills"
	// CCacheInserts counts fills wired and published into a view tree.
	CCacheInserts = "cache.inserts"
	// CCacheStaleFills counts fill messages discarded because the subtree
	// was already wired: duplicated fills (fault injection) or fills racing
	// a retry's second copy. Idempotent insertion makes them harmless.
	CCacheStaleFills = "cache.stale_fills"
	// CCacheRetries counts fetch re-sends after a fill deadline expired.
	CCacheRetries = "cache.retries"

	// CCoreBuilds counts World.BuildIteration calls that completed.
	CCoreBuilds = "core.builds"
	// CCoreSubtreesPatched counts subtrees a build found resident and
	// patched; CCoreSubtreesBuilt counts those it had to build afresh. A
	// build that reuses nothing (see core.BuildStats.FallbackReason) adds
	// its whole cover to the second.
	CCoreSubtreesPatched = "core.subtrees_patched"
	CCoreSubtreesBuilt   = "core.subtrees_built"
	// CCoreLeavesReused counts tree leaves a build kept as they were;
	// CCoreLeavesDirty counts those it re-bucketed and re-shared.
	CCoreLeavesReused = "core.leaves_reused"
	CCoreLeavesDirty  = "core.leaves_dirty"

	// HCacheFetchRTT is the request-to-publish round-trip latency
	// sketch, in nanoseconds.
	HCacheFetchRTT = "cache.fetch_rtt_ns"
	// HCacheInsert is the fill deserialize+splice time sketch (ns).
	HCacheInsert = "cache.insert_ns"
	// HRTTask is the per-task execution time sketch (ns).
	HRTTask = "rt.task_ns"

	// CTraceSpansDropped is the tracer ring's overwritten-span count,
	// published by Registry.Snapshot when tracing is on.
	CTraceSpansDropped = "trace.spans_dropped"

	// CServeRequests counts queries admitted into the serve batcher.
	CServeRequests = "serve.requests"
	// CServeWaves counts coalesced traversal waves the batcher launched.
	CServeWaves = "serve.waves"
	// CServeRejectedQueue counts queries rejected because the admission
	// queue was full (the HTTP layer's 429).
	CServeRejectedQueue = "serve.rejected_queue"
	// CServeRejectedDeadline counts queries whose deadline expired while
	// queued, rejected before their wave launched (the HTTP layer's 504).
	CServeRejectedDeadline = "serve.rejected_deadline"
	// CServeRejectedDraining counts queries rejected because the batcher
	// was draining for shutdown (the HTTP layer's 503).
	CServeRejectedDraining = "serve.rejected_draining"

	// HServeBatchSize is the per-wave coalesced batch size sketch (exact:
	// batches stay below the sketch's exact range of 128).
	HServeBatchSize = "serve.batch_size"
	// HServeQueueWait is the enqueue-to-wave-launch wait sketch (ns).
	HServeQueueWait = "serve.queue_wait_ns"
	// HServeWave is the wave execution time sketch (ns).
	HServeWave = "serve.wave_ns"
	// HServeRequest is the end-to-end request latency (queue wait + wave)
	// sketch (ns).
	HServeRequest = "serve.request_ns"

	// CServeSLOBreaches counts healthy->breached transitions of the SLO
	// watchdog (error-rate or latency-threshold violations).
	CServeSLOBreaches = "serve.slo_breaches"

	// GServeQueueDepth gauges the batcher's pending-queue depth.
	GServeQueueDepth = "serve.queue_depth"
	// GServeQueueCap gauges the batcher's admission-queue bound.
	GServeQueueCap = "serve.queue_cap"
	// GServeInflightWaves gauges concurrently running waves.
	GServeInflightWaves = "serve.inflight_waves"
	// GServeMaxWaves gauges the wave-concurrency bound.
	GServeMaxWaves = "serve.max_waves"
	// GServeReady gauges readiness: 1 serving, 0 draining or out of SLO.
	GServeReady = "serve.ready"

	// GGoHeapBytes gauges live heap bytes (runtime/metrics).
	GGoHeapBytes = "go.heap_bytes"
	// GGoMemTotalBytes gauges total Go runtime memory from the OS.
	GGoMemTotalBytes = "go.mem_total_bytes"
	// GGoGoroutines gauges the live goroutine count.
	GGoGoroutines = "go.goroutines"
	// GGoGCCycles gauges completed GC cycles.
	GGoGCCycles = "go.gc_cycles"
	// GGoGCPauseP99 gauges the p99 GC stop-the-world pause (ns) over the
	// collector's sampling interval.
	GGoGCPauseP99 = "go.gc_pause_p99_ns"
	// GGoSchedLatencyP99 gauges the p99 goroutine scheduling latency (ns)
	// over the collector's sampling interval.
	GGoSchedLatencyP99 = "go.sched_latency_p99_ns"
)

// cacheLine is the assumed cache line size for shard padding.
const cacheLine = 64

// cell is one cache-line-padded counter shard.
type cell struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a sharded atomic counter. The zero Counter is not usable;
// obtain counters from a Registry. A nil *Counter is a disabled counter:
// Add and Inc are no-ops and Value returns 0.
//
//paratreet:nilsafe
type Counter struct {
	shards []cell
	mask   uint32
}

func newCounter(shards int) *Counter {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Counter{shards: make([]cell, n), mask: uint32(n - 1)}
}

// Inc adds 1 on the given shard (any cheap hint: worker id, rank, ...).
//
//paratreet:hotpath
func (c *Counter) Inc(shard int) {
	if c == nil {
		return
	}
	c.shards[uint32(shard)&c.mask].v.Add(1)
}

// Add adds delta on the given shard.
//
//paratreet:hotpath
func (c *Counter) Add(shard int, delta int64) {
	if c == nil {
		return
	}
	c.shards[uint32(shard)&c.mask].v.Add(delta)
}

// Value sums all shards. It is a consistent total only once producers are
// quiescent; concurrent readers see a possibly-torn but monotone view.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// Gauge is a last-write-wins instantaneous value (queue depth, heap
// bytes, readiness). Unlike counters it is not sharded: gauges are
// written by samplers and state machines, not hot loops. A nil *Gauge is
// disabled.
//
//paratreet:nilsafe
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the gauge's current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) reset() { g.v.Store(0) }

// Options configures a Registry.
type Options struct {
	// Shards is the counter shard count (rounded up to a power of two).
	// Default 8; use ~the worker count for heavily contended runs.
	Shards int
	// TraceCapacity is the event tracer's ring-buffer size in spans.
	// 0 disables tracing entirely (the default).
	TraceCapacity int
}

// Registry owns a named set of counters, gauges, and sketches plus an
// optional tracer. A nil *Registry is the disabled layer: every method is
// a no-op returning nil/zero handles that are themselves safe to use.
//
//paratreet:nilsafe
type Registry struct {
	opts   Options
	tracer *Tracer

	mu       sync.Mutex
	counters map[string]*Counter // guarded by mu
	gauges   map[string]*Gauge   // guarded by mu
	sketches map[string]*Sketch  // guarded by mu
}

// NewRegistry constructs an enabled registry.
func NewRegistry(opts Options) *Registry {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	r := &Registry{
		opts:     opts,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sketches: make(map[string]*Sketch),
	}
	if opts.TraceCapacity > 0 {
		r.tracer = newTracer(opts.TraceCapacity)
	}
	return r
}

// Counter returns the named counter, creating it on first use. The same
// name always returns the same counter. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = newCounter(r.opts.Shards)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Sketch returns the named quantile sketch, creating it on first use:
// the one instrument per distribution series (e.g. "serve.wave_ns"),
// observed once per event.
func (r *Registry) Sketch(name string) *Sketch {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sketches[name]
	if !ok {
		s = NewSketch()
		r.sketches[name] = s
	}
	return s
}

// Tracer returns the registry's event tracer (nil when tracing is off).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Reset zeroes every instrument and drops all recorded spans.
// Instruments stay registered, so held handles remain valid.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, s := range r.sketches {
		s.Reset()
	}
	r.mu.Unlock()
	r.tracer.reset()
}

// Snapshot captures every registered instrument into a plain-value
// Snapshot. When tracing, the ring's drop count is published as counter
// CTraceSpansDropped, so a wrapped ring shows on /metrics too. Returns
// nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{Counters: map[string]int64{}}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.sketches) > 0 {
		s.Sketches = make(map[string]SketchSnapshot, len(r.sketches))
		for name, sk := range r.sketches {
			s.Sketches[name] = sk.Snapshot()
		}
	}
	r.mu.Unlock()
	if r.tracer != nil {
		s.Spans = r.tracer.Spans()
		s.SpansDropped = r.tracer.Dropped()
		s.Counters[CTraceSpansDropped] = s.SpansDropped
	}
	return s
}
