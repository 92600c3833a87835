// Package traverse implements the framework's traversal engines (§II-A):
// top-down traversal in two styles — ParaTreeT's locality-enhancing
// transposed loop that carries an active-bucket list down the tree, and the
// standard per-bucket depth-first walk ("BasicTrav") — plus the up-and-down
// traversal used by k-nearest-neighbor algorithms and a dual-tree traversal
// with the cell() decision. All engines run on one frame scheduler
// (sched.go), which also owns pause/resume: reaching a remote placeholder
// parks the frame on the node's lock-free waiter list via the software
// cache and continues with other work; fills resume parked frames on the
// least busy worker.
//
// Each traversal behaves like a chare: its frames execute one at a time
// (the scheduler's pump), so visitor writes to bucket particles need no
// locks, while different traversals run in parallel across workers.
package traverse

import (
	"math"
	"time"

	"paratreet/internal/cache"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// engineMetrics holds a traversal engine's observability handles,
// resolved once at construction. When the layer is off every handle is
// nil and `enabled` is false; the counters are fed once per pump session
// from the scheduler's tallies, never per frame.
type engineMetrics struct {
	enabled bool
	shard   int
	visits  *metrics.Counter
	opens   *metrics.Counter
	prunes  *metrics.Counter
	parks   *metrics.Counter
	resumes *metrics.Counter
	hits    *metrics.Counter
	misses  *metrics.Counter
	// tracer is nil unless the registry traces; park/resume instants are
	// emitted only on the miss path (pause and the resume closure), never
	// per frame.
	tracer *metrics.Tracer
}

func newEngineMetrics(proc *rt.Proc) engineMetrics {
	reg := proc.Metrics()
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		enabled: true,
		shard:   proc.Rank(),
		visits:  reg.Counter(metrics.CTraverseVisits),
		opens:   reg.Counter(metrics.CTraverseOpens),
		prunes:  reg.Counter(metrics.CTraversePrunes),
		parks:   reg.Counter(metrics.CTraverseParks),
		resumes: reg.Counter(metrics.CTraverseResumes),
		hits:    reg.Counter(metrics.CCacheHits),
		misses:  reg.Counter(metrics.CCacheMisses),
		tracer:  reg.Tracer(),
	}
}

// notePark records a park instant on the trace timeline. Lives on the
// miss path only, so the clock read is off the per-frame pump.
//
//paratreet:coldpath
func (m *engineMetrics) notePark() {
	if m.tracer != nil {
		m.tracer.Emit(metrics.EvPark, "park", m.shard, -1, 0, time.Now(), 0)
	}
}

// noteResume records a resume instant; runs on the resumed continuation.
//
//paratreet:coldpath
func (m *engineMetrics) noteResume() {
	if m.tracer != nil {
		m.tracer.Emit(metrics.EvResume, "resume", m.shard, -1, 0, time.Now(), 0)
	}
}

// isCachedRemote reports whether a node's data was served from the cache
// (fetched from another process earlier in the traversal).
//
//paratreet:hotpath
func isCachedRemote(k tree.Kind) bool {
	return k == tree.KindCachedRemote || k == tree.KindCachedRemoteLeaf
}

// Bucket is a traversal target: a leaf bucket owned by a Partition, with
// writable particles. Key is the source leaf's global tree key.
type Bucket struct {
	Key       uint64
	Box       vec.Box
	Particles []particle.Particle
	// State is per-bucket visitor state (e.g. kNN heaps); engines do not
	// touch it.
	State any
	// Targets is the target storage of the Partition that owns the bucket,
	// shared by all its buckets, and Offset the index of the bucket's first
	// particle in the partition's run of particles. The build numbers them
	// after every leaf share; buckets made elsewhere (per-query buckets,
	// tests) leave both zero.
	Targets *Targets
	Offset  int
}

// Targets is the target storage one Partition keeps for as long as it
// lives: N is the number of particles across its buckets, and State
// belongs to whichever visitor package attached state to them (kNN keeps
// its heap arena there), so the storage is carved again each step rather
// than allocated.
type Targets struct {
	N     int
	State any
	// Packed is a visitor's packed copy of the targets for the life of one
	// traversal: gravity's column slab, the targets by particle offset
	// (each column padded by eight entries, so its kernels' eight-lane
	// loads stay in bounds) and then the buckets' boxes and particle ranges
	// by the traversal's bucket index, set by its Pack and dropped by its
	// Unpack. It is nil between traversals.
	Packed []float64
}

// SharedTargets returns the Targets every bucket points at, or nil when
// there are none or they differ.
func SharedTargets(buckets []*Bucket) *Targets {
	if len(buckets) == 0 {
		return nil
	}
	t := buckets[0].Targets
	for _, b := range buckets[1:] {
		if b.Targets != t {
			return nil
		}
	}
	return t
}

// Visitor is the paper's Visitor abstraction: Open decides whether to
// traverse below source for the given target; Node applies the
// approximated interaction when source is not opened; Leaf applies exact
// interactions when the traversal reaches a leaf. Open must not mutate the
// target (read-only semantics); Node and Leaf may update target particles.
type Visitor[D any] interface {
	Open(source *tree.Node[D], target *Bucket) bool
	Node(source *tree.Node[D], target *Bucket)
	Leaf(source *tree.Node[D], target *Bucket)
}

// SourceVisitor is the source-major form of a Visitor, and the only call
// the engines make: one per frame. VisitSource evaluates source against
// every bucket listed in active — indices into buckets — and returns, as
// opened extended, those whose Open decision is true. Every other listed
// bucket has had Node applied; when leaf is set, source holds particles and
// every opened bucket has had Leaf applied. The decision and the kernels
// per (source, bucket) pair are exactly Open, Node and Leaf; what the form
// adds is a place to compute what depends on source alone once per frame
// instead of once per pair. An implementation must not write through
// source or active (sibling frames share both), nor to a bucket it reports
// opened unless leaf is set.
//
// A Visitor that also implements SourceVisitor is called through it;
// any other is wrapped by the per-pair adapter below.
type SourceVisitor[D any] interface {
	VisitSource(source *tree.Node[D], buckets []*Bucket, active, opened []int32, leaf bool) []int32
}

// perPair adapts a plain Visitor to the source-major call.
type perPair[D any, V Visitor[D]] struct{ v V }

//paratreet:hotpath
func (a perPair[D, V]) VisitSource(source *tree.Node[D], buckets []*Bucket, active, opened []int32, leaf bool) []int32 {
	for _, bi := range active {
		b := buckets[bi]
		if !a.v.Open(source, b) {
			a.v.Node(source, b)
			continue
		}
		if leaf {
			a.v.Leaf(source, b)
		}
		opened = append(opened, bi)
	}
	return opened
}

// Packer is an optional lifecycle hook for a visitor: Pack runs once, on
// the traversal's worker, before its first frame; Unpack runs once when the
// last frame has drained, before onDone. Between them the visitor may keep
// its targets in a layout of its own (gravity packs them into columns for
// its vector kernels) as long as Unpack leaves the buckets as the per-pair
// calls would have. Buckets are the traversal's, in its order.
type Packer interface {
	Pack(buckets []*Bucket)
	Unpack(buckets []*Bucket)
}

func sourceMajor[D any, V Visitor[D]](v V) SourceVisitor[D] {
	if sv, ok := any(v).(SourceVisitor[D]); ok {
		return sv
	}
	return perPair[D, V]{v}
}

// Style selects the top-down loop organization.
type Style int

const (
	// Transposed is ParaTreeT's style: each tree node is visited once per
	// traversal and applied to every active bucket (locality-enhancing
	// loop transposition; the GPU-style traversal).
	Transposed Style = iota
	// PerBucket is the standard style: the tree is walked once per bucket
	// (the paper's "BasicTrav" comparison).
	PerBucket
	// upDown is PerBucket seeded outward from the bucket's own leaf; see
	// NewUpDown.
	upDown
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case PerBucket:
		return "per-bucket"
	case upDown:
		return "up-and-down"
	}
	return "transposed"
}

// Traversal is an in-flight traversal over one partition's buckets. Create
// with NewTopDown or NewUpDown, start with Start; Done reports completion
// (all frames drained, including paused ones).
type Traversal[D any] struct {
	sched[D, []int32]
	visit   SourceVisitor[D]
	pack    Packer // nil unless the visitor implements it
	buckets []*Bucket
	style   Style
	// unseeded is how many buckets have no seed frames yet. Seeds are
	// pushed when the scheduler runs out of work, last bucket first, so the
	// stack holds one bucket's walk at a time (depth x branch factor).
	unseeded int
	// arena backs the frames' active lists: pumper-owned, released when
	// the traversal completes.
	arena i32Arena
}

// NewTopDown constructs a traversal of buckets against the cache's view
// tree. onDone (may be nil) runs exactly once when the traversal finishes.
func NewTopDown[D any, V Visitor[D]](proc *rt.Proc, c *cache.Cache[D], viewID int, buckets []*Bucket, visitor V, style Style, onDone func()) *Traversal[D] {
	t := &Traversal[D]{visit: sourceMajor[D](visitor), buckets: buckets, style: style, unseeded: len(buckets)}
	t.pack, _ = any(visitor).(Packer)
	t.init(proc, c, viewID, t, onDone)
	return t
}

// refill seeds the next unseeded bucket — or, transposed, all of them as
// one frame's active list. The first refill packs the targets.
//
//paratreet:coldpath
func (t *Traversal[D]) refill() bool {
	if t.unseeded == 0 {
		return false
	}
	if t.unseeded == len(t.buckets) && t.pack != nil {
		t.pack.Pack(t.buckets)
	}
	root := t.cache.Root(t.viewID)
	if t.style == Transposed {
		active := t.arena.alloc(t.unseeded)
		for i := range t.buckets {
			active = append(active, int32(i))
		}
		t.unseeded = 0
		t.push(frame[D, []int32]{node: root, work: active})
		return true
	}
	t.unseeded--
	active := append(t.arena.alloc(1), int32(t.unseeded))
	if t.style == upDown {
		t.seedPath(root, active)
	} else {
		t.push(frame[D, []int32]{node: root, work: active})
	}
	return true
}

//paratreet:coldpath
func (t *Traversal[D]) release() {
	t.arena.release()
	if t.pack != nil {
		t.pack.Unpack(t.buckets)
	}
}

// eval evaluates one frame with one visitor call.
//
//paratreet:hotpath
func (t *Traversal[D]) eval(f frame[D, []int32]) {
	n, active := f.node, f.work
	kind := n.Kind()
	switch {
	case kind == tree.KindRemote:
		// No data: cannot evaluate open() — fetch unconditionally.
		t.pause(f)
		return

	case kind == tree.KindEmptyLeaf:
		// Nothing to interact with.

	case kind == tree.KindRemoteLeaf:
		// Data known, particles absent: only buckets that open need the
		// particles fetched.
		need := t.visitSource(n, active, false)
		if len(need) > 0 {
			f.work = need
			t.pause(f)
			return
		}

	case kind.IsLeaf():
		// Nothing descends from a leaf: the opened list was only a count.
		t.arena.unalloc(len(t.visitSource(n, active, true)))

	default: // internal (local, cached, or shared top node)
		remain := t.visitSource(n, active, false)
		switch len(remain) {
		case 0:
		case 1:
			t.pushChildrenNearFirst(n, -1, remain)
		default:
			for i := 0; i < n.NumChildren(); i++ {
				if c := n.Child(i); c != nil {
					t.push(frame[D, []int32]{node: c, parent: n, childIdx: i, work: remain})
				}
			}
		}
	}
	if isCachedRemote(kind) {
		t.hits++
	}
}

// visitSource makes the frame's visitor call, keeps arena space for the
// opened list alone and tallies the decisions.
//
//paratreet:hotpath
func (t *Traversal[D]) visitSource(n *tree.Node[D], active []int32, leaf bool) []int32 {
	opened := t.visit.VisitSource(n, t.buckets, active, t.arena.alloc(len(active)), leaf)
	t.arena.unalloc(len(active) - len(opened))
	t.opens += int64(len(opened))
	t.prunes += int64(len(active) - len(opened))
	return opened
}

// pushChildrenNearFirst pushes a single-bucket frame's children, all but
// the one at index skip (−1 skips none), ordered far-to-near from the
// bucket, so the LIFO stack explores the nearest child first. For
// visitors with shrinking pruning criteria (k-nearest neighbors, ball
// searches) this is essential: near leaves fill the heaps early and
// distant subtrees — including remote placeholders, whose extent is
// unknown and which are explored last, often after the radius has shrunk
// enough to prune them without a fetch — never open. The up-and-down
// seeds push each path node's off-path children through it too.
//
//paratreet:hotpath
func (t *Traversal[D]) pushChildrenNearFirst(n *tree.Node[D], skip int, remain []int32) {
	b := t.buckets[remain[0]]
	center := b.Box.Center()
	type child struct {
		idx  int
		c    *tree.Node[D]
		dist float64
	}
	var order [8]child
	count := 0
	for i := 0; i < n.NumChildren(); i++ {
		c := n.Child(i)
		if c == nil || i == skip {
			continue
		}
		d := math.Inf(1) // unknown boxes (placeholders) explored last
		if c.Kind().HasData() {
			d = c.Box.DistSq(center)
		}
		order[count] = child{idx: i, c: c, dist: d}
		count++
	}
	// Insertion sort descending by distance (push far first, pop near
	// first); branch factors are at most 8.
	for i := 1; i < count; i++ {
		for j := i; j > 0 && order[j].dist > order[j-1].dist; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i := 0; i < count; i++ {
		t.push(frame[D, []int32]{node: order[i].c, parent: n, childIdx: order[i].idx, work: remain})
	}
}
