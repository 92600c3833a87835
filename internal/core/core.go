// Package core implements the Partitions-Subtrees model (§II-C), the
// framework's central structural contribution: particles are decomposed
// twice, once into Partitions that own buckets (load) and once into
// Subtrees that own tree segments (memory), with independent strategies.
// After Subtrees build their pieces of the global tree, the leaf-sharing
// step hands each leaf's particles to the Partitions that own them —
// splitting only buckets, never tree paths, at partition borders.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paratreet/internal/cache"
	"paratreet/internal/decomp"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/sfc"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// Partition owns a slice of the particle load as a set of buckets. It is
// the unit of traversal work and of load balancing (a chare in the
// original system).
type Partition[D any] struct {
	// ID is the partition's index, in decomposition (SFC) order.
	ID int
	// Home is the rank of the process currently hosting the partition.
	Home int
	// LoadNanos is the measured traversal work accumulated since the last
	// load-balancing window boundary. It survives from-scratch rebuilds
	// mid-window, and the balancer zeroes it after consuming a window so
	// migration tracks recent load, not the whole run's.
	LoadNanos int64

	mu      sync.Mutex
	buckets []*traverse.Bucket
}

// AddBucket appends a bucket (called during leaf sharing, possibly from
// several subtree build tasks and the communication goroutine).
func (p *Partition[D]) AddBucket(b *traverse.Bucket) {
	p.mu.Lock()
	p.buckets = append(p.buckets, b)
	p.mu.Unlock()
}

// Buckets returns the partition's buckets. Only call after leaf sharing
// has quiesced.
func (p *Partition[D]) Buckets() []*traverse.Bucket { return p.buckets }

// RemoveBucketsByKey drops every bucket whose leaf key is in stale,
// returning how many were dropped. The build calls it between iterations —
// before the leaf share re-emits dirty leaves — never concurrently with
// traversal.
func (p *Partition[D]) RemoveBucketsByKey(stale map[uint64]struct{}) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.buckets[:0]
	for _, b := range p.buckets {
		if _, ok := stale[b.Key]; ok {
			continue
		}
		kept = append(kept, b)
	}
	removed := len(p.buckets) - len(kept)
	for i := len(kept); i < len(p.buckets); i++ {
		p.buckets[i] = nil
	}
	p.buckets = kept
	return removed
}

// NumParticles counts the partition's particles.
func (p *Partition[D]) NumParticles() int {
	n := 0
	for _, b := range p.buckets {
		n += len(b.Particles)
	}
	return n
}

// Subtree owns one segment of the global tree and the particles within it.
type Subtree[D any] struct {
	Key       uint64
	Level     int
	Box       vec.Box
	Owner     int
	Particles []particle.Particle
	Root      *tree.Node[D]

	// version is the build (World.builds) that last changed the tree, and
	// sum the root summary broadcast by that build. Build numbers only
	// grow, so a version never repeats for a key: fetched data a cache
	// holds under (key, version) is current exactly while both match.
	version uint64
	sum     tree.RootSummary
}

// bucketMsg carries a split-off bucket to a remote partition's home
// process during leaf sharing.
type bucketMsg struct {
	PartitionID int
	Key         uint64
	Box         vec.Box
	Home        int
	Blob        []byte
}

// RawMsg is an application-defined message routed through the world's
// dispatcher to the handler registered with SetRawHandler — used by
// baseline emulations (e.g. ChaNGa's branch-node merge) that need real
// wire traffic outside the cache protocol.
type RawMsg struct {
	Tag  string
	Blob []byte
}

// Config parameterizes one iteration's build.
type Config struct {
	TreeType    tree.Type
	DecompType  decomp.Type
	BucketSize  int
	Partitions  int
	Subtrees    int
	FetchDepth  int
	CachePolicy cache.Policy
	// ShareDepth is how many levels below each subtree root are broadcast
	// to every process during the top-share step (the paper's branch-node
	// sharing hyperparameter). 0 shares only the root summaries.
	ShareDepth int
	// BuildWorkers is the goroutine budget for the parallel build path
	// inside each subtree build task (and for key assignment/sorting).
	// 0 or 1 selects the serial build.
	BuildWorkers int
	// Retry is the cache fetch deadline policy. The zero value disables
	// retries; enable it whenever the machine injects message loss, or
	// dropped fetch traffic would strand traversals.
	Retry cache.RetryPolicy
	// Incremental lets a build patch the previous build's subtrees instead
	// of building them afresh: a subtree of the new cover that is resident
	// already — same key, same owner, in an unchanged universe — is patched
	// in place along dirty paths, its root summary is re-broadcast only if
	// the patch changed something, cached remote subtrees with unchanged
	// versions survive the view refresh, and only buckets of dirty leaves
	// are re-shared. The resulting state is bit-identical to a from-scratch
	// build of the same particles. Configurations the patcher does not
	// support (non-octree trees, Hilbert or ORB decompositions) and steps
	// that leave nothing to reuse (first build, universe change) build
	// every subtree afresh, with the reason recorded in BuildStats. It
	// costs a second particle array (see World.cur), which is why it is an
	// option.
	Incremental bool
}

// WithDefaults fills unset fields based on the machine size.
func (c Config) WithDefaults(nprocs int) Config {
	if c.BucketSize <= 0 {
		c.BucketSize = 16
	}
	if c.Partitions <= 0 {
		c.Partitions = 8 * nprocs
	}
	if c.Subtrees <= 0 {
		c.Subtrees = 4 * nprocs
	}
	if nprocs > 1 && c.Subtrees < 2 {
		// A single subtree would make a remote process's entire view one
		// parentless remote node, which traversals cannot fetch through.
		c.Subtrees = 2
	}
	if c.FetchDepth <= 0 {
		c.FetchDepth = 3
	}
	return c
}

// World is the per-machine state of the Partitions-Subtrees model: the
// caches, partitions, and subtrees of the current iteration.
type World[D any] struct {
	Machine    *rt.Machine
	Caches     []*cache.Cache[D]
	Partitions []*Partition[D]
	Subtrees   []*Subtree[D]

	cfg   Config
	acc   tree.Accumulator[D]
	codec tree.DataCodec[D]

	// Universe is the current global bounding box.
	Universe vec.Box

	// LeafShareTime is the wall time of the last leaf-sharing step; the
	// paper reports it as 0.1-0.4% of iteration time.
	LeafShareTime time.Duration
	// BuildTime is the wall time of the last decomposition + tree build.
	BuildTime time.Duration
	// SplitBuckets counts buckets split across partition borders.
	SplitBuckets int
	// BroadcastBytes is the top-share broadcast volume of the last
	// iteration (summary + shared-branch bytes to every other process).
	BroadcastBytes int

	homes []int // partition -> proc placement

	stats BuildStats
	// builds numbers BuildIteration calls; subtree versions are drawn
	// from it.
	builds uint64
	// cur is the backing array the live subtree trees alias; spare is the
	// retired buffer the next build sorts into. Kept only when the
	// configuration can patch (Config.patchable): a patch reads the new
	// array while the trees still alias the old one. The caller's array is
	// never aliased: callers move particles in it between builds.
	cur, spare []particle.Particle
	mx         worldMetrics
	// sorter serves every build: successive builds displace about as many
	// particles, so its reference buffers stay sized to that and the sort
	// allocates nothing (it lets them go after an outlier, see Reset).
	sorter particle.Sorter

	rawHandler atomic.Pointer[func(self, from int, msg RawMsg)]
}

// BuildStats describes what the most recent BuildIteration did: how many
// subtrees it could reuse and how much work reusing them avoided.
type BuildStats struct {
	// Mode is "incremental" when at least one resident subtree was reused
	// (patched), "scratch" when every subtree was built afresh.
	Mode string
	// FallbackReason is why nothing could be reused, when
	// Config.Incremental is set but Mode is "scratch": "first-build",
	// "tree-type", "decomp-type", "universe-changed", or
	// "splitters-changed" (no subtree of the new cover is resident with
	// the same key and owner). Empty otherwise.
	FallbackReason string
	// Movers counts particles whose Morton key changed since the previous
	// iteration; counted only when there were subtrees to reuse.
	Movers int
	// SortMoved counts the particles the sort found out of place and had
	// to move; 0 means the array arrived in (Key, ID) order and the sort
	// wrote nothing.
	SortMoved int
	// DirtyLeaves and ReusedLeaves count tree leaves re-bucketed vs kept
	// across all subtrees; every leaf of a subtree built afresh is dirty.
	DirtyLeaves  int
	ReusedLeaves int
	// Of the reused subtrees, PatchedSubtrees had something to repair and
	// re-broadcast their summary, ReusedSummaries did not. BuiltSubtrees
	// were not resident and were built afresh.
	PatchedSubtrees int
	ReusedSummaries int
	BuiltSubtrees   int
	// RefreshedBuckets counts buckets the leaf share emitted, and
	// RemovedBuckets the stale ones it dropped first (not counted when
	// everything resident is dropped wholesale).
	RefreshedBuckets int
	RemovedBuckets   int
	// CacheKept and CacheDropped count fetched remote subtrees re-adopted
	// into the refreshed views vs invalidated by a version change.
	CacheKept    int
	CacheDropped int
}

// worldMetrics are the build's counters on the machine's registry, added
// to once per build at the commit point; all nil (and free) without one.
// A refresh loop that has stopped patching shows as subtreesBuilt growing
// by the whole cover each build while subtreesPatched stands still.
type worldMetrics struct {
	builds, subtreesPatched, subtreesBuilt, leavesReused, leavesDirty *metrics.Counter
}

// SetRawHandler registers the consumer of RawMsg traffic; self is the
// receiving rank.
func (w *World[D]) SetRawHandler(fn func(self, from int, msg RawMsg)) {
	w.rawHandler.Store(&fn)
}

// SendRaw ships a RawMsg from rank `from` to rank `to` through the
// machine, with full communication accounting.
func (w *World[D]) SendRaw(from, to int, msg RawMsg) {
	w.Machine.Proc(from).Send(to, msg, len(msg.Blob)+len(msg.Tag)+16)
}

// NewWorld creates the per-process caches and installs message dispatchers
// on the machine. One World drives many iterations.
func NewWorld[D any](m *rt.Machine, cfg Config, acc tree.Accumulator[D], codec tree.DataCodec[D]) *World[D] {
	cfg = cfg.WithDefaults(m.NumProcs())
	w := &World[D]{Machine: m, cfg: cfg, acc: acc, codec: codec}
	for r := 0; r < m.NumProcs(); r++ {
		c := cache.New[D](m.Proc(r), cfg.CachePolicy, cfg.TreeType, codec, cfg.FetchDepth)
		c.SetRetry(cfg.Retry)
		w.Caches = append(w.Caches, c)
		proc := m.Proc(r)
		proc.SetDispatcher(func(from int, payload any) {
			switch msg := payload.(type) {
			case cache.RequestMsg:
				if err := c.HandleRequest(msg); err != nil {
					panic(err)
				}
			case cache.FillMsg:
				c.HandleFill(msg)
			case cache.RetryMsg:
				c.HandleRetry(msg)
			case bucketMsg:
				w.receiveBucket(msg)
			case RawMsg:
				if h := w.rawHandler.Load(); h != nil {
					(*h)(proc.Rank(), from, msg)
				}
			default:
				panic(fmt.Sprintf("core: unknown message %T", payload))
			}
		})
	}
	w.homes = make([]int, cfg.Partitions)
	w.Partitions = make([]*Partition[D], cfg.Partitions)
	for i := range w.homes {
		w.homes[i] = i * m.NumProcs() / cfg.Partitions
		// Partitions live as long as the world, so the load measured on
		// them accumulates across the builds of a load-balancing window.
		w.Partitions[i] = &Partition[D]{ID: i, Home: w.homes[i]}
	}
	reg := m.Metrics()
	w.mx = worldMetrics{
		builds:          reg.Counter(metrics.CCoreBuilds),
		subtreesPatched: reg.Counter(metrics.CCoreSubtreesPatched),
		subtreesBuilt:   reg.Counter(metrics.CCoreSubtreesBuilt),
		leavesReused:    reg.Counter(metrics.CCoreLeavesReused),
		leavesDirty:     reg.Counter(metrics.CCoreLeavesDirty),
	}
	return w
}

// Config returns the world's (defaulted) configuration.
func (w *World[D]) Config() Config { return w.cfg }

// SetHomes overrides partition placement (used by the load balancers).
// The slice must have one entry per partition.
func (w *World[D]) SetHomes(homes []int) error {
	if len(homes) != w.cfg.Partitions {
		return fmt.Errorf("core: %d homes for %d partitions", len(homes), w.cfg.Partitions)
	}
	for _, h := range homes {
		if h < 0 || h >= w.Machine.NumProcs() {
			return fmt.Errorf("core: home %d out of range", h)
		}
	}
	w.homes = homes
	return nil
}

// Homes returns the current partition placement.
func (w *World[D]) Homes() []int { return w.homes }

// BuildIteration runs the full pre-traversal pipeline on ps: universe
// reduction, key assignment, the two decompositions, the per-subtree build
// tasks, the top-share step, and leaf sharing. ps is reordered. After it
// returns, every partition holds its buckets and every cache presents its
// view of the global tree.
//
// There is one pipeline, and its only fork is per subtree (the reuse
// rule): a subtree of the new cover is patched when the configuration can
// patch (Config.patchable), the universe is unchanged, and a resident
// subtree has the same key and owner; otherwise it is built afresh, which
// is the same patch applied to a bare root. A from-scratch build is the
// case where the reuse set is empty; BuildStats reports which it was.
func (w *World[D]) BuildIteration(ps []particle.Particle) error {
	buildStart := time.Now()
	m := w.Machine
	nprocs := m.NumProcs()
	workers := w.cfg.BuildWorkers
	octree := w.cfg.TreeType == tree.Octree
	curve := w.cfg.DecompType.Curve()
	st := BuildStats{Mode: "scratch"}

	// 1. Front end: reject non-finite positions (they have no key) before
	// anything resident changes, reduce the universe — the global bounding
	// box, padded so boundary particles stay interior, cubed for octrees so
	// octants keep unit aspect ratio — and key every particle within it.
	// With subtrees to reuse, one pass does all of it by keying against the
	// resident universe while the box is still being reduced (and counts
	// the keys that changed): any change to the box rescales every Morton
	// cell, so then nothing is reusable and the keys are assigned again.
	patchable, reason := w.cfg.patchable()
	reuse := patchable && len(w.Subtrees) > 0
	if patchable && !reuse {
		reason = "first-build"
	}
	var box vec.Box
	bad := -1
	if reuse {
		box, st.Movers, bad = tree.KeyScan(ps, w.Universe, sfc.MortonKey, workers, &w.sorter)
	} else {
		box, bad = particle.Bounds(ps)
	}
	if bad >= 0 {
		return fmt.Errorf("core: particle %d has a non-finite position %v", ps[bad].ID, ps[bad].Pos)
	}
	universe := box.Pad(1e-9)
	if octree {
		universe = universe.Cubed()
	}
	if reuse && universe != w.Universe {
		reuse, reason, st.Movers = false, "universe-changed", 0
	}
	if !reuse {
		tree.KeyScan(ps, universe, func(p vec.Vec3, b vec.Box) uint64 { return sfc.Key(curve, p, b) }, workers, &w.sorter)
	}

	// 2. Sort along the decomposition's curve, into the array the subtrees
	// will own: never the one live trees alias, so a patch can compare old
	// buckets with new, and a build that fails leaves them intact.
	next := w.spare
	if cap(next) < len(ps) {
		next = make([]particle.Particle, len(ps))
	}
	next = next[:len(ps)]
	sorted, other, moved := w.sortInto(next, ps)
	st.SortMoved = moved

	// 3. Partition decomposition (load): mark every particle. Marks are
	// compared as part of the particle struct during patching, so a
	// reassigned particle dirties both its old and new leaves.
	if _, err := decomp.Assign(w.cfg.DecompType, sorted, universe, w.cfg.Partitions); err != nil {
		return err
	}

	// 4. Subtree decomposition (memory), consistent with the tree type. It
	// is recomputed every build, not reused: the splitter refinement is
	// count-sensitive, and the cover it yields decides what is reusable.
	var splits decomp.Splitters
	if octree {
		// Octree subtrees need Morton order; re-key if the partition
		// decomposition used a different curve or (ORB) reordered particles.
		if curve != sfc.Morton || w.cfg.DecompType == decomp.ORB {
			tree.KeyScan(sorted, universe, sfc.MortonKey, workers, &w.sorter)
			sorted, other, moved = w.sortInto(other, sorted)
			st.SortMoved += moved
		}
		splits = decomp.OctSplitters(sorted, universe, w.cfg.Subtrees)
	} else {
		splits = decomp.MedianSplitters(sorted, universe, w.cfg.Subtrees, w.cfg.TreeType)
	}
	if err := splits.Validate(len(ps), w.cfg.TreeType.LogB()); err != nil {
		return err
	}
	// The caller's array and the owned one end identical, sorted and
	// marked, whichever of them the sort left the particles in.
	copy(other, sorted)

	// 5. The reuse set. The new cover's subtrees (skipping empty ranges —
	// absent children become empty leaves in the shared top tree) are
	// placed in blocks on the processes; one that is resident under the
	// same key — which fixes its level and box — on the same owner is kept
	// and will be patched, the others start from a bare root. Resident
	// subtrees left over are retired, and the buckets cut from their
	// leaves with them.
	var byKey map[uint64]*Subtree[D]
	if reuse {
		byKey = make(map[uint64]*Subtree[D], len(w.Subtrees))
		for _, old := range w.Subtrees {
			byKey[old.Key] = old
		}
	}
	live := make([]*Subtree[D], 0, splits.Len())
	for i := 0; i < splits.Len(); i++ {
		lo, hi := splits.Ranges[i][0], splits.Ranges[i][1]
		if hi == lo {
			continue
		}
		// The particle exchange: the owner receives its subtree's particles.
		live = append(live, &Subtree[D]{
			Key: splits.Keys[i], Level: splits.Levels[i], Box: splits.Boxes[i],
			Particles: next[lo:hi:hi],
		})
	}
	reused := make([]bool, len(live))
	for i, s := range live {
		s.Owner = i * nprocs / len(live)
		if old := byKey[s.Key]; old != nil && old.Owner == s.Owner {
			old.Particles = s.Particles
			live[i], reused[i] = old, true
			delete(byKey, s.Key)
			st.Mode = "incremental"
			continue
		}
		s.Root = tree.NewNode[D](s.Key, s.Level, tree.KindEmptyLeaf, 0)
		s.Root.Owner, s.Root.Box = int32(s.Owner), s.Box
	}
	if reuse && st.Mode != "incremental" {
		reuse, reason = false, "splitters-changed"
	}
	if w.cfg.Incremental {
		st.FallbackReason = reason
	}
	var stale map[uint64]struct{}
	if reuse {
		var gone []uint64
		for _, old := range byKey {
			gone = tree.BucketLeafKeys(old.Root, gone)
		}
		stale = make(map[uint64]struct{}, len(gone))
		for _, k := range gone {
			stale[k] = struct{}{}
		}
	} else {
		// Nothing resident survives: drop it wholesale rather than find
		// out piecemeal what is stale.
		for _, c := range w.Caches {
			c.Reset()
		}
	}
	for i, p := range w.Partitions {
		// Placement the load balancer decided since the last build.
		p.Home = w.homes[i]
		if !reuse {
			p.buckets = nil
		}
	}
	w.Universe, w.Subtrees = universe, live
	ownerOf := func(i int) int { return live[i].Owner }

	// 6. One task per subtree on its owner: patch the tree to match the
	// new particles. A bare root has nothing to keep, so patching it is the
	// build.
	results := make([]*tree.PatchResult[D], len(live))
	w.fanOut(len(live), ownerOf, rt.PhaseTreeBuild, func(i int) {
		s := live[i]
		results[i] = tree.PatchSubtree(s.Root, s.Particles, tree.BuildConfig{
			Type:       w.cfg.TreeType,
			BucketSize: w.cfg.BucketSize,
			Owner:      int32(s.Owner),
			Workers:    workers,
			// Subtree particles arrive Morton-sorted for octrees (step 4
			// re-keys if the decomposition curve differed).
			MortonOrdered: octree,
		}, w.acc)
	})

	// 7. Top share: a subtree that changed takes this build's number as
	// its version and broadcasts a fresh root summary; an unchanged one
	// keeps both. Every process then builds its view(s) of the top of the
	// global tree, keeping what it had fetched from unchanged subtrees.
	w.builds++
	sums := make([]tree.RootSummary, len(live))
	versions := make(map[uint64]uint64, len(live))
	w.BroadcastBytes = 0
	for i, s := range live {
		res := results[i]
		st.DirtyLeaves += len(res.DirtyLeaves)
		st.ReusedLeaves += res.ReusedLeaves
		switch {
		case !reused[i]:
			st.BuiltSubtrees++
		case res.Changed:
			st.PatchedSubtrees++
		default:
			st.ReusedSummaries++
		}
		if res.Changed {
			s.version = w.builds
			s.sum = tree.SummarizeDepth(s.Root, w.codec, w.cfg.ShareDepth)
			w.BroadcastBytes += (len(s.sum.Data) + len(s.sum.Tree) + 64) * (nprocs - 1)
		}
		sums[i] = s.sum
		versions[s.Key] = s.version
	}
	refreshed := make([]cache.RefreshStats, nprocs)
	topErrs := make([]error, nprocs)
	w.fanOut(nprocs, func(r int) int { return r }, rt.PhaseTopShare, func(r int) {
		var local []*tree.Node[D]
		for _, s := range live {
			if s.Owner == r {
				local = append(local, s.Root)
			}
		}
		refreshed[r], topErrs[r] = w.Caches[r].RefreshViews(sums, local, w.acc, versions)
	})
	if err := errors.Join(topErrs...); err != nil {
		return err
	}
	for _, rs := range refreshed {
		st.CacheKept += rs.Kept
		st.CacheDropped += rs.Dropped
	}
	w.BuildTime = time.Since(buildStart)

	// 8. Leaf share: drop every bucket derived from a leaf that is gone
	// (its subtree retired, its region restructured) or dirty, then walk
	// the dirty leaves on their owners and hand bucket copies to the owning
	// partitions. Clean leaves' buckets are untouched — their particles
	// compared equal, so the copies the partitions hold are already
	// current.
	shareStart := time.Now()
	if reuse {
		for i, res := range results {
			if !reused[i] {
				continue
			}
			for _, k := range res.RemovedLeafKeys {
				stale[k] = struct{}{}
			}
			for _, leaf := range res.DirtyLeaves {
				stale[leaf.Key] = struct{}{}
			}
		}
		for _, p := range w.Partitions {
			st.RemovedBuckets += p.RemoveBucketsByKey(stale)
		}
	}
	shared := make([][2]int64, len(live)) // per subtree: split buckets, buckets emitted
	w.fanOut(len(live), ownerOf, rt.PhaseLeafShare, func(i int) {
		for _, leaf := range results[i].DirtyLeaves {
			sp, bk := w.shareLeaf(live[i], leaf)
			shared[i][0] += sp
			shared[i][1] += bk
		}
	})
	w.SplitBuckets = 0
	for _, c := range shared {
		w.SplitBuckets += int(c[0])
		st.RefreshedBuckets += int(c[1])
	}
	w.LeafShareTime = time.Since(shareStart)

	// 9. Commit: the array the previous trees aliased is unreferenced now;
	// a configuration that can patch keeps it to sort the next build into.
	if patchable {
		w.spare, w.cur = w.cur, next
		if cap(w.spare) < len(next) {
			// The next build would otherwise allocate its buffer, and on a
			// heap with no free run that large the array arrives as
			// untouched pages: every first write is a page fault, 0.2 s for
			// 1e5 particles on a lazily backed VM against 12 ms for the
			// rest of the step — or nothing, when the collector happened to
			// leave a free run. That cost is set-up's; clear touches the
			// pages now.
			w.spare = make([]particle.Particle, len(next))
			clear(w.spare)
		}
	}
	w.stats = st
	w.mx.builds.Inc(0)
	w.mx.subtreesPatched.Add(0, int64(st.PatchedSubtrees+st.ReusedSummaries))
	w.mx.subtreesBuilt.Add(0, int64(st.BuiltSubtrees))
	w.mx.leavesReused.Add(0, int64(st.ReusedLeaves))
	w.mx.leavesDirty.Add(0, int64(st.DirtyLeaves))
	return nil
}

// patchable reports whether this configuration can patch subtrees at all
// and, when Incremental asks for it in vain, why not: the patcher splits
// octants by Morton-key prefix, so only octrees under the Morton-keyed
// decompositions qualify.
func (c Config) patchable() (ok bool, reason string) {
	switch {
	case !c.Incremental:
		return false, ""
	case c.TreeType != tree.Octree:
		return false, "tree-type"
	case c.DecompType != decomp.SFCMorton && c.DecompType != decomp.Oct:
		return false, "decomp-type"
	}
	return true, ""
}

// BuildStats returns what the most recent BuildIteration did.
func (w *World[D]) BuildStats() BuildStats { return w.stats }

// fanOut runs fn(i) for every i in [0, n) as a task on process proc(i),
// timed under phase, and returns once all have finished and the machine
// is quiescent.
func (w *World[D]) fanOut(n int, proc func(i int) int, phase rt.Phase, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p := w.Machine.Proc(proc(i))
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			p.TimePhase(phase, func() { fn(i) })
		})
	}
	wg.Wait()
	w.Machine.WaitQuiescence()
}

// sortInto finishes the sort tree.KeyScan began over src: the one sort
// every build goes through. It returns the array that now holds the
// particles in (Key, ID) order and the one that does not — (dst, src)
// when moved particles were out of place, (src, dst) with neither array
// written when none was.
func (w *World[D]) sortInto(dst, src []particle.Particle) (sorted, other []particle.Particle, moved int) {
	if moved = w.sorter.SortInto(dst, src, w.cfg.BuildWorkers); moved == 0 {
		return src, dst, 0
	}
	return dst, src, moved
}

// shareLeaf hands one leaf's particles to their owning partitions:
// directly for partitions hosted on the subtree's owner, by message
// otherwise. Buckets whose particles span several partitions are split into
// per-partition local buckets (Fig 5). Returns (split buckets, buckets
// emitted).
func (w *World[D]) shareLeaf(st *Subtree[D], leaf *tree.Node[D]) (splits, buckets int64) {
	ps := leaf.Particles
	// Count the leaf's particles per partition, partitions in order of
	// first appearance. Assignments are almost always one contiguous run
	// (spatial decompositions) and a leaf rarely spans more than two
	// partitions, so the distinct set is searched linearly.
	parts := make([]int32, 0, 8)
	counts := make([]int, 0, 8)
	for i := range ps {
		j := slices.Index(parts, ps[i].Partition)
		if j < 0 {
			j = len(parts)
			parts = append(parts, ps[i].Partition)
			counts = append(counts, 0)
		}
		counts[j]++
	}
	if len(parts) > 1 {
		splits = int64(len(parts))
	}
	for j, part := range parts {
		partition := w.Partitions[part]
		if partition.Home == st.Owner {
			group := make([]particle.Particle, 0, counts[j])
			for i := range ps {
				if ps[i].Partition == part {
					group = append(group, ps[i])
				}
			}
			partition.AddBucket(&traverse.Bucket{Key: leaf.Key, Box: leaf.Box, Particles: group, Home: st.Owner})
			continue
		}
		// Remote partition: serialize and ship the bucket.
		blob := make([]byte, 0, counts[j]*particle.BinarySize)
		for i := range ps {
			if ps[i].Partition == part {
				blob = particle.AppendBinary(blob, &ps[i])
			}
		}
		w.Machine.Proc(st.Owner).Send(partition.Home, bucketMsg{
			PartitionID: int(part),
			Key:         leaf.Key,
			Box:         leaf.Box,
			Home:        st.Owner,
			Blob:        blob,
		}, len(blob)+64)
	}
	return splits, int64(len(parts))
}

// receiveBucket lands a shipped bucket in its partition.
func (w *World[D]) receiveBucket(msg bucketMsg) {
	n := len(msg.Blob) / particle.BinarySize
	group := make([]particle.Particle, n)
	off := 0
	for i := 0; i < n; i++ {
		used := particle.DecodeBinary(msg.Blob[off:], &group[i])
		if used == 0 {
			panic("core: truncated bucket message")
		}
		off += used
	}
	w.Partitions[msg.PartitionID].AddBucket(&traverse.Bucket{
		Key:       msg.Key,
		Box:       msg.Box,
		Particles: group,
		Home:      msg.Home,
	})
}

// Gather collects every partition's particles into one slice (the state
// handed to the next iteration after postTraversal updates).
func (w *World[D]) Gather(dst []particle.Particle) []particle.Particle {
	dst = dst[:0]
	for _, p := range w.Partitions {
		for _, b := range p.Buckets() {
			dst = append(dst, b.Particles...)
		}
	}
	return dst
}

// PartitionsOn returns the partitions currently homed on rank r.
func (w *World[D]) PartitionsOn(r int) []*Partition[D] {
	var out []*Partition[D]
	for _, p := range w.Partitions {
		if p.Home == r {
			out = append(out, p)
		}
	}
	return out
}

// CheckCensus verifies no particles were lost or duplicated: the
// partitions' total must equal n.
func (w *World[D]) CheckCensus(n int) error {
	total := 0
	for _, p := range w.Partitions {
		total += p.NumParticles()
	}
	if total != n {
		return fmt.Errorf("core: partitions hold %d particles, want %d", total, n)
	}
	return nil
}
