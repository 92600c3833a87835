// Package cache implements the paper's shared-memory software cache for
// distributed tree traversals (§II-B): a single tree per process rather
// than a hash table of node pointers, supporting parallel reads and writes
// with no locking on the traversal path. Fetched remote subtrees are fully
// wired before being published by one atomic child-pointer swap, and paused
// traversals parked on lock-free waiter lists are resumed on the least busy
// worker.
//
// Three insertion policies reproduce the paper's comparison (Fig 3):
//
//   - WaitFree: the paper's model — any worker inserts concurrently.
//   - XWrite: every insertion holds a process-wide lock ("exclusive-write").
//   - PerThread: every worker keeps a private cache of remote data, so no
//     synchronization is needed but each worker misses and fetches
//     independently — the "per-thread software cache" the paper evaluates
//     under the name "Sequential", with its higher communication volume and
//     memory footprint.
package cache

import (
	"fmt"
	"sync"
	"time"

	"paratreet/internal/metrics"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
)

// Policy selects the cache insertion model.
type Policy int

const (
	// WaitFree is the paper's shared-memory model.
	WaitFree Policy = iota
	// XWrite serializes insertions behind a process-wide mutex.
	XWrite
	// PerThread gives each worker a private cache of remote data
	// (the paper's "Sequential" comparison curve).
	PerThread
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case WaitFree:
		return "waitfree"
	case XWrite:
		return "xwrite"
	case PerThread:
		return "per-thread"
	default:
		return "unknown"
	}
}

// RequestMsg asks a node's home process for the node and its descendants.
type RequestMsg struct {
	Key       uint64
	Requester int
	View      int
}

// requestMsgBytes approximates the wire size of a request.
const requestMsgBytes = 8 + 4 + 4

// FillMsg carries a serialized subtree back to a requester.
type FillMsg struct {
	Key  uint64
	View int
	Blob []byte
	// buf is the pooled buffer backing Blob, recycled by the winning
	// insert; nil for fills constructed outside HandleRequest (tests).
	buf *fillBuf
}

// fillBuf is a pooled fill blob. The home process serializes into a
// pooled buffer and ships it; ownership travels with the message, and
// exactly one receiver-side path may recycle it: the insert that wins
// the pending gate, after deserialization. Duplicated or stale fills
// lose the gate before ever reading Blob, retried fetches serialize
// into distinct buffers, and dropped deliveries simply leak the buffer
// to the garbage collector — so a buffer can never be recycled twice or
// recycled while still readable.
type fillBuf struct{ data []byte }

var fillBufPool = sync.Pool{New: func() any { return new(fillBuf) }}

// RetryMsg is the cache's self-addressed fetch deadline, scheduled through
// rt.Proc.SendSelfAfter when a request is issued. If the fill has not
// landed when it fires, the request is re-sent with a doubled deadline.
// The armed timer holds a quiescence pending unit, so a lost fetch can
// never strand parked traversals at a premature quiescence.
type RetryMsg struct {
	Key     uint64
	View    int
	Attempt int
}

// RetryPolicy bounds the fetch retry protocol. The zero value disables
// retries (every send is assumed reliable, the pre-fault-injection
// behavior).
type RetryPolicy struct {
	// Timeout is the first attempt's fill deadline; 0 disables retries.
	Timeout time.Duration
	// MaxBackoff caps the exponentially doubled deadline. 0 means 32x
	// Timeout.
	MaxBackoff time.Duration
	// MaxAttempts aborts (panics) after this many re-sends, a loud failure
	// for links lossier than the protocol can mask. 0 means 64.
	MaxAttempts int
}

// withDefaults fills the derived bounds of an enabled policy.
func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.Timeout <= 0 {
		return RetryPolicy{}
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 32 * r.Timeout
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 64
	}
	return r
}

// backoff returns the deadline for the given attempt (1-based): doubled
// each attempt, capped at MaxBackoff, plus a deterministic jitter of up to
// 25% derived from the key so simultaneous timeouts do not re-fire in
// lockstep.
func (r RetryPolicy) backoff(key uint64, attempt int) time.Duration {
	d := r.Timeout
	for i := 1; i < attempt && d < r.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	// splitmix-style hash of (key, attempt): stateless, so retry timing
	// never perturbs the fault PRNG sequences.
	h := key*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return d + time.Duration(h%uint64(d/4+1))
}

// view is one cache tree: the whole process shares one view except under
// PerThread, where each worker owns a view.
type view[D any] struct {
	root    *tree.Node[D]
	pending sync.Map // key -> *tree.Node[D] placeholder with request in flight
}

// Cache is a process's software cache of the global tree.
type Cache[D any] struct {
	proc       *rt.Proc
	policy     Policy
	treeType   tree.Type
	codec      tree.DataCodec[D]
	fetchDepth int

	// localRoots is the process-level hash table of local subtree roots
	// (Fig 2, bottom left). It is written under rootsMu during the top
	// share and read without locking during traversal — the build/traverse phase
	// barrier orders the writes, so traversal-side reads carry
	// //paratreet:allow(lockcheck) waivers instead of taking the lock.
	rootsMu    sync.Mutex
	localRoots map[uint64]*tree.Node[D] // guarded by rootsMu
	sortedKeys []uint64                 // guarded by rootsMu

	views []*view[D]

	// lastVersions holds the per-subtree versions the current views were
	// built against (RefreshViews); nil on a cold cache. Build-phase-only
	// state, like views.
	lastVersions map[uint64]uint64

	insertMu sync.Mutex // XWrite only

	// retry is the fetch deadline policy (zero = disabled). retryTimers
	// tracks the armed deadline per in-flight request so a landing fill
	// cancels it; a stale timer that outlives its request self-cleans when
	// it fires.
	retry       RetryPolicy
	retryMu     sync.Mutex
	retryTimers map[reqID]*rt.Delayed // guarded by retryMu

	mx cacheMetrics
}

// cacheMetrics holds the cache's observability handles, resolved once at
// construction; all-nil (enabled=false) when the layer is off. tracer is
// nil when the registry does not trace — the fetch/fill flow events then
// cost one nil check inside Emit.
type cacheMetrics struct {
	enabled    bool
	inserts    *metrics.Counter
	staleFills *metrics.Counter
	fetchRTT   *metrics.Sketch
	insertNs   *metrics.Sketch
	tracer     *metrics.Tracer
	// reqAt maps in-flight (key, view) to the request issue time and trace
	// flow id, for the fetch round-trip sketch and the fetch→fill flow
	// arrow. A plain map under its own mutex: the previous sync.Map had to
	// be "cleared" in Reset by assigning a fresh sync.Map over the old one,
	// which copies the internal mutex and races with concurrent
	// Store/LoadAndDelete calls.
	reqMu sync.Mutex
	reqAt map[reqID]reqInfo // guarded by reqMu
}

// reqInfo is what the metrics layer remembers about an in-flight request.
type reqInfo struct {
	at   time.Time
	flow uint64
}

// noteRequest records the issue time and flow id of an in-flight request.
// The map is allocated lazily so the metrics-off path never touches it.
func (m *cacheMetrics) noteRequest(id reqID, info reqInfo) {
	m.reqMu.Lock()
	if m.reqAt == nil {
		m.reqAt = make(map[reqID]reqInfo)
	}
	m.reqAt[id] = info
	m.reqMu.Unlock()
}

// peekRequest returns the record for id without removing it (the retry
// path reuses the fetch's flow id while keeping the RTT record for the
// eventual fill).
func (m *cacheMetrics) peekRequest(id reqID) (reqInfo, bool) {
	m.reqMu.Lock()
	info, ok := m.reqAt[id]
	m.reqMu.Unlock()
	return info, ok
}

// takeRequest removes and returns the record for id.
func (m *cacheMetrics) takeRequest(id reqID) (reqInfo, bool) {
	m.reqMu.Lock()
	info, ok := m.reqAt[id]
	if ok {
		delete(m.reqAt, id)
	}
	m.reqMu.Unlock()
	return info, ok
}

// resetRequests drops all in-flight timestamps.
func (m *cacheMetrics) resetRequests() {
	m.reqMu.Lock()
	m.reqAt = nil
	m.reqMu.Unlock()
}

// reqID identifies an in-flight request; under PerThread the same key can
// be in flight once per view.
type reqID struct {
	key  uint64
	view int
}

// New constructs a cache for proc. fetchDepth is the number of descendant
// levels shipped per request (the paper's nodes-fetched-per-request knob).
func New[D any](proc *rt.Proc, policy Policy, t tree.Type, codec tree.DataCodec[D], fetchDepth int) *Cache[D] {
	if fetchDepth <= 0 {
		fetchDepth = 3
	}
	nviews := 1
	if policy == PerThread {
		nviews = proc.NumWorkers()
	}
	c := &Cache[D]{
		proc:       proc,
		policy:     policy,
		treeType:   t,
		codec:      codec,
		fetchDepth: fetchDepth,
		localRoots: make(map[uint64]*tree.Node[D]),
	}
	for v := 0; v < nviews; v++ {
		c.views = append(c.views, &view[D]{})
	}
	if reg := proc.Metrics(); reg != nil {
		c.mx.enabled = true
		c.mx.inserts = reg.Counter(metrics.CCacheInserts)
		c.mx.staleFills = reg.Counter(metrics.CCacheStaleFills)
		c.mx.fetchRTT = reg.Sketch(metrics.HCacheFetchRTT)
		c.mx.insertNs = reg.Sketch(metrics.HCacheInsert)
		c.mx.tracer = reg.Tracer()
	}
	return c
}

// SetRetry installs the fetch deadline policy. Call before the machine
// starts serving traversals; the zero policy disables retries. With
// retries enabled the cache survives dropped and duplicated fetch traffic
// (rt fault injection): lost requests or fills are re-sent after an
// exponentially backed-off deadline, and duplicated fills are discarded by
// the idempotent insert gate.
func (c *Cache[D]) SetRetry(p RetryPolicy) {
	c.retry = p.withDefaults()
	if c.retry.Timeout > 0 && c.retryTimers == nil {
		c.retryMu.Lock()
		c.retryTimers = make(map[reqID]*rt.Delayed)
		c.retryMu.Unlock()
	}
}

// Policy returns the cache's insertion policy.
func (c *Cache[D]) Policy() Policy { return c.policy }

// TreeType returns the tree type the cache was built for.
func (c *Cache[D]) TreeType() tree.Type { return c.treeType }

// NumViews returns 1, or the worker count under PerThread.
func (c *Cache[D]) NumViews() int { return len(c.views) }

// ViewFor maps a worker id to its view id.
func (c *Cache[D]) ViewFor(workerID int) int {
	if c.policy == PerThread {
		return workerID % len(c.views)
	}
	return 0
}

// LocalRoots returns the hash table of local subtree roots.
func (c *Cache[D]) LocalRoots() map[uint64]*tree.Node[D] {
	//paratreet:allow(lockcheck) read after the build barrier; no writers during traversal
	return c.localRoots
}

// Root returns the global-tree view for the given view id.
func (c *Cache[D]) Root(viewID int) *tree.Node[D] { return c.views[viewID].root }

// Reset drops all cached remote data and local registrations, for the next
// iteration's rebuild.
func (c *Cache[D]) Reset() {
	c.rootsMu.Lock()
	c.localRoots = make(map[uint64]*tree.Node[D])
	c.sortedKeys = nil
	c.rootsMu.Unlock()
	for _, v := range c.views {
		v.root = nil
		v.pending = sync.Map{}
	}
	c.lastVersions = nil
	c.retryMu.Lock()
	for id, d := range c.retryTimers {
		delete(c.retryTimers, id)
		d.Cancel()
	}
	c.retryMu.Unlock()
	c.mx.resetRequests()
}

// Request ensures node n (a KindRemote or KindRemoteLeaf placeholder in
// view viewID) is being fetched and registers resume to run once the fill
// is published. It returns true if resume was parked; false means the fill
// already landed — the caller re-reads the parent's child pointer and
// continues inline without waiting.
func (c *Cache[D]) Request(viewID int, n *tree.Node[D], resume func()) bool {
	if !n.Waiters.Add(resume) {
		return false
	}
	if n.TryRequest() {
		v := c.views[viewID]
		v.pending.Store(n.Key, n)
		c.proc.Stats().NodeRequests.Add(1)
		if c.mx.enabled {
			now := time.Now()
			flow := c.mx.tracer.NextFlow()
			c.mx.tracer.Emit(metrics.EvFetch, "fetch", c.proc.Rank(), -1, flow, now, 0)
			c.mx.noteRequest(reqID{n.Key, viewID}, reqInfo{at: now, flow: flow})
		}
		c.proc.SendLossy(int(n.Owner), RequestMsg{Key: n.Key, Requester: c.proc.Rank(), View: viewID}, requestMsgBytes)
		if c.retry.Timeout > 0 {
			c.armRetry(reqID{n.Key, viewID}, 1)
		}
	} else {
		c.proc.Stats().DuplicateRequests.Add(1)
	}
	return true
}

// armRetry schedules the fill deadline for attempt (1-based) of the given
// in-flight request.
func (c *Cache[D]) armRetry(id reqID, attempt int) {
	d := c.proc.SendSelfAfter(c.retry.backoff(id.key, attempt),
		RetryMsg{Key: id.key, View: id.view, Attempt: attempt})
	c.retryMu.Lock()
	c.retryTimers[id] = d
	c.retryMu.Unlock()
}

// cancelRetry disarms the deadline for id, if one is armed. Races are
// benign: a timer that escapes cancellation finds the request no longer
// pending when it fires and cleans itself up.
func (c *Cache[D]) cancelRetry(id reqID) {
	if c.retry.Timeout <= 0 {
		return
	}
	c.retryMu.Lock()
	d := c.retryTimers[id]
	delete(c.retryTimers, id)
	c.retryMu.Unlock()
	if d != nil {
		d.Cancel()
	}
}

// HandleRetry fires a fill deadline on the communication goroutine. If the
// fill landed meanwhile this is a stale timer and cleans itself up;
// otherwise the request (or its fill) was lost on the wire, so the fetch
// is re-sent with a doubled deadline.
func (c *Cache[D]) HandleRetry(msg RetryMsg) {
	id := reqID{msg.Key, msg.View}
	v := c.views[msg.View]
	ph, inFlight := v.pending.Load(msg.Key)
	if !inFlight {
		c.retryMu.Lock()
		delete(c.retryTimers, id)
		c.retryMu.Unlock()
		return
	}
	if msg.Attempt >= c.retry.MaxAttempts {
		panic(fmt.Sprintf("cache: fetch for key %#x on rank %d gave up after %d attempts (link lossier than the retry protocol tolerates)",
			msg.Key, c.proc.Rank(), msg.Attempt))
	}
	c.proc.Stats().Retries.Add(1)
	if c.mx.enabled {
		var flow uint64
		if info, ok := c.mx.peekRequest(id); ok {
			flow = info.flow
		}
		c.mx.tracer.Emit(metrics.EvRetry, "retry", c.proc.Rank(), -1, flow, time.Now(), 0)
	}
	owner := ph.(*tree.Node[D]).Owner
	c.proc.SendLossy(int(owner), RequestMsg{Key: msg.Key, Requester: c.proc.Rank(), View: msg.View}, requestMsgBytes)
	c.armRetry(id, msg.Attempt+1)
}

// HandleRequest serves a remote request on the home process: locate the
// node, serialize it with fetchDepth descendant levels, and ship the fill.
// Runs on the communication goroutine.
func (c *Cache[D]) HandleRequest(msg RequestMsg) error {
	start := time.Now()
	n := c.FindLocal(msg.Key)
	if n == nil {
		return fmt.Errorf("cache: request for unknown key %#x on rank %d", msg.Key, c.proc.Rank())
	}
	buf := fillBufPool.Get().(*fillBuf)
	buf.data = tree.AppendSubtree(buf.data[:0], n, c.fetchDepth, c.codec)
	st := c.proc.Stats()
	st.NodesShipped.Add(int64(countShipped(n, c.fetchDepth)))
	st.ParticlesShipped.Add(int64(countParticlesShipped(n, c.fetchDepth)))
	c.proc.SendLossy(msg.Requester, FillMsg{Key: msg.Key, View: msg.View, Blob: buf.data, buf: buf}, len(buf.data))
	c.proc.PhaseSince(rt.PhaseCacheRequest, start)
	return nil
}

// HandleFill schedules cache insertion of an arriving fill according to the
// policy; runs on the communication goroutine, which must stay responsive,
// so the actual insertion is a worker task (least busy under WaitFree and
// XWrite; the owning worker under PerThread).
func (c *Cache[D]) HandleFill(msg FillMsg) {
	c.proc.Stats().Fills.Add(1)
	insert := func() {
		start := time.Now()
		if !c.insert(msg) {
			// A duplicated (or spuriously re-fetched) fill lost the pending
			// gate: the subtree is already published, so drop the copy.
			if c.mx.enabled {
				c.mx.staleFills.Inc(c.proc.Rank())
			}
			return
		}
		dur := time.Since(start)
		c.proc.PhaseSince(rt.PhaseCacheInsert, start)
		if c.mx.enabled {
			c.mx.inserts.Inc(c.proc.Rank())
			c.mx.insertNs.Observe(int64(dur))
			var flow uint64
			if info, ok := c.mx.takeRequest(reqID{msg.Key, msg.View}); ok {
				c.mx.fetchRTT.Observe(int64(time.Since(info.at)))
				flow = info.flow
			}
			c.mx.tracer.Emit(metrics.EvFill, "fill", c.proc.Rank(), -1, flow, start, dur)
		}
	}
	if c.policy == PerThread {
		c.proc.SubmitTo(msg.View, insert)
	} else {
		c.proc.Submit(insert)
	}
}

// insert converts the collapsed fill into wired nodes (Step 2), checks the
// local-roots hash table for re-entrant boundaries (Step 3), publishes the
// subtree with an atomic swap of the placeholder (Step 4), and schedules
// the paused traversals parked on it (Step 5). It reports false for a
// stale fill — one whose pending entry was already consumed by an earlier
// copy — making fill application idempotent under duplication and retry.
func (c *Cache[D]) insert(msg FillMsg) bool {
	v := c.views[msg.View]
	phAny, ok := v.pending.LoadAndDelete(msg.Key)
	if !ok {
		return false
	}
	ph := phAny.(*tree.Node[D])
	c.cancelRetry(reqID{msg.Key, msg.View})

	if c.policy == XWrite {
		// Exclusive-write model: deserialization and splice both happen
		// while holding the process-wide cache lock, as with a coarsely
		// locked node table. Lock wait time is accounted.
		waitStart := time.Now()
		c.insertMu.Lock()
		c.proc.Stats().LockWaitNanos.Add(int64(time.Since(waitStart)))
		defer c.insertMu.Unlock()
	}

	//paratreet:allow(lockcheck) fills arrive during traversal, after the build barrier froze the table
	fetched, err := tree.DeserializeSubtree(msg.Blob, c.treeType.LogB(), c.codec, c.localRoots)
	if err != nil {
		panic(fmt.Sprintf("cache: bad fill for key %#x: %v", msg.Key, err))
	}
	if msg.buf != nil {
		// This insert won the pending gate and is done reading Blob;
		// recycle the pooled buffer (see fillBuf for why exactly once).
		fillBufPool.Put(msg.buf)
	}
	parent := ph.Parent
	if parent == nil {
		panic(fmt.Sprintf("cache: placeholder %#x has no parent", msg.Key))
	}
	idx := ph.ChildIndex(c.treeType.LogB())
	if !parent.SwapChild(idx, ph, fetched) {
		panic(fmt.Sprintf("cache: placeholder %#x swapped twice", msg.Key))
	}
	// Seal-and-drain: every continuation parked before the swap is resumed;
	// racers that lose Add re-read the child pointer and proceed inline.
	for _, resume := range ph.Waiters.Seal() {
		c.proc.Submit(resume)
	}
	return true
}

// FindLocal locates the local node with the given key by descending from
// the owning local subtree root.
func (c *Cache[D]) FindLocal(key uint64) *tree.Node[D] {
	logB := c.treeType.LogB()
	var root *tree.Node[D]
	//paratreet:allow(lockcheck) traversal-time read; the table is frozen after the build barrier
	for _, rk := range c.sortedKeys {
		if tree.IsAncestorKey(rk, key, logB) {
			//paratreet:allow(lockcheck) traversal-time read; the table is frozen after the build barrier
			root = c.localRoots[rk]
			break
		}
	}
	if root == nil {
		return nil
	}
	n := root
	depth := tree.KeyLevel(key, logB) - root.Level
	for d := depth - 1; d >= 0; d-- {
		if n == nil || n.Kind().IsLeaf() {
			return nil
		}
		idx := int(key>>(uint(d)*logB)) & (1<<logB - 1)
		n = n.Child(idx)
	}
	return n
}

func countShipped[D any](n *tree.Node[D], depth int) int {
	count := 1
	if !n.Kind().IsLeaf() && depth > 0 {
		for i := 0; i < n.NumChildren(); i++ {
			count += countShipped(n.Child(i), depth-1)
		}
	}
	return count
}

func countParticlesShipped[D any](n *tree.Node[D], depth int) int {
	if n.Kind().IsLeaf() {
		return len(n.Particles)
	}
	if depth == 0 {
		return 0
	}
	total := 0
	for i := 0; i < n.NumChildren(); i++ {
		total += countParticlesShipped(n.Child(i), depth-1)
	}
	return total
}
