// Package metrics is the runtime observability layer: low-overhead,
// concurrency-safe counters, histograms, and an event tracer that the
// runtime (internal/rt), the software cache (internal/cache), and the
// traversal engines (internal/traverse) report into. It reproduces the
// kind of built-in per-phase, per-worker accounting the paper's evaluation
// is made of — cache hit ratios (Fig 3), per-phase utilization (Fig 9),
// traversal open/prune volumes — without ad-hoc printf instrumentation.
//
// The layer is disabled by default and must cost (nearly) nothing then:
// a nil *Registry is a valid, fully disabled registry, and every handle
// it hands out (nil *Counter, nil *Histogram, nil *Tracer) is safe to
// call. Producers resolve their handles once at construction time, so the
// disabled hot path is a single nil/bool check. Counters are sharded
// across cache-line-padded cells to keep enabled-mode contention low;
// callers pass any cheap shard hint (worker id, proc rank, partition id).
package metrics

import (
	"math/bits"
	"sort"
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
	// histogram, in nanoseconds.
	HCacheFetchRTT = "cache.fetch_rtt_ns"
	// HCacheInsert is the fill deserialize+splice time histogram.
	HCacheInsert = "cache.insert_ns"
	// HRTTask is the per-task execution time histogram.
	HRTTask = "rt.task_ns"

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

	// HServeBatchSize is the per-wave coalesced batch size histogram.
	HServeBatchSize = "serve.batch_size"
	// HServeQueueWait is the enqueue-to-wave-launch wait histogram (ns).
	HServeQueueWait = "serve.queue_wait_ns"
	// HServeWave is the wave execution time histogram (ns).
	HServeWave = "serve.wave_ns"
	// HServeRequest is the end-to-end request latency (queue wait + wave)
	// histogram and sketch name (ns).
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

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds values v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i, with
// bucket 0 holding v <= 0.
const histBuckets = 64

// Histogram is a lock-free power-of-two-bucketed histogram of int64
// values (typically nanoseconds). A nil *Histogram is disabled.
//
//paratreet:nilsafe
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1)<<62 - 1)
	h.max.Store(-(int64(1)<<62 - 1))
	return h
}

// Observe records one value.
//
//paratreet:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
	h.min.Store(int64(1)<<62 - 1)
	h.max.Store(-(int64(1)<<62 - 1))
}

// HistogramBucket is one exported histogram bucket: Count values were
// observed with value <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a plain-value copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the power-of-two bucket holding the target rank, clamped into
// [Min, Max]. The buckets are coarse (each spans a factor of two), so the
// estimate can be off by up to ~1/3 of the value; it is the honest tail
// readout available from a plain histogram snapshot — the streaming
// sketches carry the tight (<=1/64 relative error) quantiles. Returns 0
// when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for _, b := range s.Buckets {
		// Bucket le = 2^i - 1 covers [2^(i-1), 2^i - 1]; bucket le = 0
		// holds v <= 0.
		lo := 0.0
		if b.Le > 0 {
			lo = float64((b.Le + 1) / 2)
		}
		hi := float64(b.Le)
		inBucket := float64(b.Count)
		if rank <= float64(cum)+inBucket {
			frac := 0.0
			if inBucket > 0 {
				frac = (rank - float64(cum)) / inBucket
			}
			v := lo + frac*(hi-lo)
			// The exact extrema tighten the first and last buckets.
			if v < float64(s.Min) {
				v = float64(s.Min)
			}
			if v > float64(s.Max) {
				v = float64(s.Max)
			}
			return v
		}
		cum += b.Count
	}
	return float64(s.Max)
}

// Snapshot copies the histogram's state, omitting empty buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			le := int64(0)
			if i > 0 {
				le = int64(1)<<uint(i) - 1
			}
			s.Buckets = append(s.Buckets, HistogramBucket{Le: le, Count: n})
		}
	}
	return s
}

// Options configures a Registry.
type Options struct {
	// Shards is the counter shard count (rounded up to a power of two).
	// Default 8; use ~the worker count for heavily contended runs.
	Shards int
	// TraceCapacity is the event tracer's ring-buffer size in spans.
	// 0 disables tracing entirely (the default).
	TraceCapacity int
}

// Registry owns a named set of counters and histograms plus an optional
// tracer. A nil *Registry is the disabled layer: every method is a no-op
// returning nil/zero handles that are themselves safe to use.
//
//paratreet:nilsafe
type Registry struct {
	opts   Options
	tracer *Tracer

	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	sketches map[string]*Sketch    // guarded by mu
}

// NewRegistry constructs an enabled registry.
func NewRegistry(opts Options) *Registry {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	r := &Registry{
		opts:     opts,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
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

// Sketch returns the named streaming quantile sketch, creating it on
// first use. By convention a sketch shares its name with the histogram
// observing the same series (e.g. "serve.wave_ns"): the histogram keeps
// the cheap distribution shape, the sketch the tight tail quantiles.
func (r *Registry) Sketch(name string) *Sketch {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sketches[name]
	if !ok {
		s = newSketch()
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

// Reset zeroes every counter and histogram and drops all recorded spans.
// Instruments stay registered, so held handles remain valid.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, h := range r.hists {
		h.reset()
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
// Snapshot. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters[name] = r.counters[name].Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
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
	}
	return s
}
