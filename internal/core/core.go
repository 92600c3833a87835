// Package core implements the Partitions-Subtrees model (§II-C), the
// framework's central structural contribution: particles are decomposed
// twice, once into Partitions that own buckets (load) and once into
// Subtrees that own tree segments (memory), with independent strategies.
// After Subtrees build their pieces of the global tree, the leaf-sharing
// step hands each leaf's particles to the Partitions that own them —
// splitting only buckets, never tree paths, at partition borders.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paratreet/internal/cache"
	"paratreet/internal/decomp"
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
// returning how many were dropped. The incremental build calls it between
// iterations — before the delta leaf share re-emits dirty leaves — never
// concurrently with traversal.
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
	// Incremental enables the between-timestep incremental build path:
	// when the particle set moved only slightly since the previous
	// iteration, subtree trees are patched in place along dirty paths
	// instead of rebuilt, unchanged root summaries are not re-broadcast,
	// cached remote subtrees with unchanged versions survive the view
	// refresh, and only buckets of dirty leaves are re-shared. The
	// resulting state is bit-identical to a from-scratch build of the same
	// particles; configurations the patch path does not support (non-octree
	// trees, Hilbert or ORB decompositions) and steps that invalidate the
	// previous state (universe change, splitter drift) fall back to the
	// scratch build, with the reason recorded in BuildStats.
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
	inc   *incState[D]
	// sorter serves every build: successive builds displace about as many
	// particles, so its reference buffers stay sized to that and the sort
	// allocates nothing (it lets them go after an outlier, see Reset).
	sorter particle.Sorter

	rawHandler atomic.Pointer[func(self, from int, msg RawMsg)]
}

// BuildStats describes what the most recent BuildIteration did: which
// path it took and, for the incremental path, how much work the patch
// avoided.
type BuildStats struct {
	// Mode is "scratch" or "incremental".
	Mode string
	// FallbackReason is why the incremental path was not taken, when
	// Config.Incremental is set but Mode is "scratch": "first-build",
	// "tree-type", "decomp-type", "universe-changed", or
	// "splitters-changed". Empty otherwise.
	FallbackReason string
	// Movers counts particles whose Morton key changed since the previous
	// iteration.
	Movers int
	// SortMoved counts the particles the sort found out of place and had
	// to move; 0 means the array arrived in (Key, ID) order and the sort
	// wrote nothing.
	SortMoved int
	// DirtyLeaves and ReusedLeaves count tree leaves re-bucketed vs kept
	// across all subtrees; PatchedSubtrees and ReusedSummaries count
	// subtrees whose summary was re-broadcast vs reused.
	DirtyLeaves     int
	ReusedLeaves    int
	PatchedSubtrees int
	ReusedSummaries int
	// RefreshedBuckets and RemovedBuckets count the delta leaf share's
	// bucket churn.
	RefreshedBuckets int
	RemovedBuckets   int
	// CacheKept and CacheDropped count fetched remote subtrees re-adopted
	// into the refreshed views vs invalidated by a version change.
	CacheKept    int
	CacheDropped int
}

// incState is the previous iteration's build state the incremental path
// patches against.
type incState[D any] struct {
	universe vec.Box
	splits   decomp.Splitters
	sums     []tree.RootSummary
	// versions counts patches per subtree key; caches keep fetched data
	// only while its home subtree's version is unchanged.
	versions map[uint64]uint64
	// cur is the backing array the live subtree trees alias; spare is the
	// retired buffer the next build sorts into. The caller's array is never
	// aliased: callers move particles in it between builds.
	cur, spare []particle.Particle
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
	for i := range w.homes {
		w.homes[i] = i * m.NumProcs() / cfg.Partitions
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
// reduction, key assignment, the two decompositions, parallel subtree
// builds, the top-share step, and leaf sharing. ps is reordered. After it
// returns, every partition holds its buckets and every cache presents its
// view of the global tree.
//
// With Config.Incremental set, iterations after the first patch the
// previous state instead of rebuilding, whenever the configuration and
// the step's motion permit (see Config.Incremental); BuildStats reports
// which path ran.
func (w *World[D]) BuildIteration(ps []particle.Particle) error {
	if !w.cfg.Incremental {
		return w.buildScratch(ps, "")
	}
	if reason := w.incrementalUnsupported(); reason != "" {
		return w.buildScratch(ps, reason)
	}
	if w.inc == nil {
		return w.buildScratch(ps, "first-build")
	}
	reason, err := w.buildIncremental(ps)
	if err != nil {
		return err
	}
	if reason != "" {
		return w.buildScratch(ps, reason)
	}
	return nil
}

// BuildStats returns what the most recent BuildIteration did.
func (w *World[D]) BuildStats() BuildStats { return w.stats }

// incrementalUnsupported reports why this configuration cannot take the
// incremental path ("" when it can): the patcher replays octree build
// decisions over Morton-sorted input, so only octrees under the
// Morton-keyed decompositions qualify.
func (w *World[D]) incrementalUnsupported() string {
	if w.cfg.TreeType != tree.Octree {
		return "tree-type"
	}
	if w.cfg.DecompType != decomp.SFCMorton && w.cfg.DecompType != decomp.Oct {
		return "decomp-type"
	}
	return ""
}

// buildScratch is the from-scratch build pipeline; reason records why an
// incremental build was not possible (empty when Incremental is off).
func (w *World[D]) buildScratch(ps []particle.Particle, reason string) error {
	w.stats = BuildStats{Mode: "scratch", FallbackReason: reason}
	buildStart := time.Now()
	m := w.Machine
	nprocs := m.NumProcs()

	// 1. Universe reduction: the global bounding box, padded so boundary
	// particles stay interior, cubed for octrees so octants keep unit
	// aspect ratio. A non-finite position has no key; reject it here,
	// before anything resident changes.
	box, bad := particle.Bounds(ps)
	if bad >= 0 {
		return nonFiniteError(&ps[bad])
	}
	universe := box.Pad(1e-9)
	if w.cfg.TreeType == tree.Octree {
		universe = universe.Cubed()
	}

	// 2. Key assignment and sort along the decomposition's curve, into the
	// array the subtrees will own.
	curve := w.cfg.DecompType.Curve()
	owned := w.takeBuffer(len(ps))
	sorted, other := w.keySort(owned, ps, universe, func(p vec.Vec3, b vec.Box) uint64 { return sfc.Key(curve, p, b) })

	// 3. Partition decomposition (load): mark every particle.
	if _, err := decomp.Assign(w.cfg.DecompType, sorted, universe, w.cfg.Partitions); err != nil {
		return err
	}

	// 4. Subtree decomposition (memory), consistent with the tree type.
	var splits decomp.Splitters
	if w.cfg.TreeType == tree.Octree {
		// Octree subtrees need Morton keys; re-key if the partition
		// decomposition used a different curve or reordered particles.
		if curve != sfc.Morton || !particle.KeysSorted(sorted) {
			sorted, other = w.keySort(other, sorted, universe, sfc.MortonKey)
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
	w.Universe = universe

	// 5. Create subtrees (skipping empty ranges — absent children become
	// empty leaves in the shared top tree) and build them in parallel on
	// their owners.
	w.Subtrees = w.Subtrees[:0]
	oldParts := w.Partitions
	w.Partitions = make([]*Partition[D], w.cfg.Partitions)
	for i := range w.Partitions {
		w.Partitions[i] = &Partition[D]{ID: i, Home: w.homes[i]}
		if i < len(oldParts) && oldParts[i] != nil {
			// Measured load accumulates across the load-balancing window;
			// the balancer zeroes it at each window boundary, so a rebuild
			// mid-window must not lose it.
			w.Partitions[i].LoadNanos = oldParts[i].LoadNanos
		}
	}
	for _, c := range w.Caches {
		c.Reset()
	}
	for i := 0; i < splits.Len(); i++ {
		lo, hi := splits.Ranges[i][0], splits.Ranges[i][1]
		if hi == lo {
			continue
		}
		w.Subtrees = append(w.Subtrees, &Subtree[D]{
			Key:   splits.Keys[i],
			Level: splits.Levels[i],
			Box:   splits.Boxes[i],
			// The particle exchange: the owner receives its subtree's
			// particles (block placement assigned below once the
			// non-empty count is known).
			Particles: owned[lo:hi:hi],
		})
	}
	for i, st := range w.Subtrees {
		st.Owner = i * nprocs / len(w.Subtrees)
	}

	var wg sync.WaitGroup
	for _, st := range w.Subtrees {
		st := st
		wg.Add(1)
		m.Proc(st.Owner).Submit(func() {
			defer wg.Done()
			m.Proc(st.Owner).TimePhase(rt.PhaseTreeBuild, func() {
				st.Root = tree.Build[D](st.Particles, st.Box, st.Key, st.Level, tree.BuildConfig{
					Type:       w.cfg.TreeType,
					BucketSize: w.cfg.BucketSize,
					Owner:      int32(st.Owner),
					Workers:    w.cfg.BuildWorkers,
					// Subtree particles arrive Morton-sorted for octrees
					// (step 4 re-keys if the decomposition curve differed),
					// enabling the prefix-search partition.
					MortonOrdered: w.cfg.TreeType == tree.Octree,
				})
				tree.AccumulateParallel(st.Root, w.acc, w.cfg.BuildWorkers)
				w.Caches[st.Owner].RegisterLocal(st.Root)
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()

	// 6. Top share: broadcast subtree-root summaries; every process builds
	// its view(s) of the top of the global tree.
	sums := make([]tree.RootSummary, len(w.Subtrees))
	w.BroadcastBytes = 0
	for i, st := range w.Subtrees {
		sums[i] = tree.SummarizeDepth(st.Root, w.codec, w.cfg.ShareDepth)
		w.BroadcastBytes += (len(sums[i].Data) + len(sums[i].Tree) + 64) * (nprocs - 1)
	}
	var topErr error
	var topMu sync.Mutex
	for r := 0; r < nprocs; r++ {
		r := r
		wg.Add(1)
		m.Proc(r).Submit(func() {
			defer wg.Done()
			m.Proc(r).TimePhase(rt.PhaseTopShare, func() {
				if err := w.Caches[r].BuildViews(sums, w.acc); err != nil {
					topMu.Lock()
					topErr = err
					topMu.Unlock()
				}
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()
	if topErr != nil {
		return topErr
	}
	w.BuildTime = time.Since(buildStart)

	// 7. Leaf sharing.
	if err := w.leafShare(); err != nil {
		return err
	}

	// 8. When the incremental path is enabled and this configuration
	// supports it, capture the state the next iteration will patch
	// against.
	w.captureIncremental(splits, sums, owned)
	return nil
}

// captureIncremental snapshots a scratch build's decomposition state for
// the next iteration's patch, resetting every subtree's version to 1 and
// installing the version baseline in the caches (which Reset cleared, so
// no stale fetched data can survive into the new version numbering).
// owned is the array the new subtrees alias.
func (w *World[D]) captureIncremental(splits decomp.Splitters, sums []tree.RootSummary, owned []particle.Particle) {
	if !w.cfg.Incremental || w.incrementalUnsupported() != "" {
		w.inc = nil
		return
	}
	versions := make(map[uint64]uint64, len(w.Subtrees))
	for _, st := range w.Subtrees {
		versions[st.Key] = 1
	}
	var spare []particle.Particle
	if w.inc != nil {
		// The array the previous trees aliased is unreferenced now.
		spare = w.inc.cur
	}
	if cap(spare) < len(owned) {
		// The first patch would otherwise allocate its buffer, and on a
		// heap with no free run that large the array arrives as untouched
		// pages: every first write is a page fault, 0.2 s for 1e5
		// particles on a lazily backed VM against 12 ms for the rest of
		// the step — or nothing, when the collector happened to leave a
		// free run. That cost is set-up's; clear touches the pages now.
		spare = make([]particle.Particle, len(owned))
		clear(spare)
	}
	w.inc = &incState[D]{
		universe: w.Universe,
		splits:   splits,
		sums:     sums,
		versions: versions,
		cur:      owned,
		spare:    spare,
	}
	for _, c := range w.Caches {
		c.SetVersions(versions)
	}
}

// takeBuffer returns the n-particle array the next build sorts into and
// its trees then own: the retired buffer of the incremental state when it
// is large enough, a fresh array otherwise. It is never the array live
// trees alias, so a build that fails leaves them intact.
func (w *World[D]) takeBuffer(n int) []particle.Particle {
	if w.inc != nil && cap(w.inc.spare) >= n {
		return w.inc.spare[:n]
	}
	return make([]particle.Particle, n)
}

// keySort keys src within universe and sorts it into dst, for the scratch
// build, whose stats it updates; src must hold finite positions.
func (w *World[D]) keySort(dst, src []particle.Particle, universe vec.Box, key tree.KeyFunc) (sorted, other []particle.Particle) {
	tree.KeyScan(src, universe, key, w.cfg.BuildWorkers, &w.sorter)
	sorted, other, moved := w.sortInto(dst, src)
	w.stats.SortMoved += moved
	return sorted, other
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

// nonFiniteError names the particle whose position has no key.
func nonFiniteError(p *particle.Particle) error {
	return fmt.Errorf("core: particle %d has a non-finite position %v", p.ID, p.Pos)
}

// leafShare walks every subtree's leaves on its owner and hands bucket
// copies to the owning partitions: directly for partitions hosted on the
// same process, by message otherwise. Buckets whose particles span several
// partitions are split into per-partition local buckets (Fig 5).
func (w *World[D]) leafShare() error {
	start := time.Now()
	m := w.Machine
	var splitCount, totalBuckets int64
	var countMu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range w.Subtrees {
		st := st
		wg.Add(1)
		m.Proc(st.Owner).Submit(func() {
			defer wg.Done()
			m.Proc(st.Owner).TimePhase(rt.PhaseLeafShare, func() {
				splits, buckets := w.shareSubtreeLeaves(st)
				countMu.Lock()
				splitCount += splits
				totalBuckets += buckets
				countMu.Unlock()
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()
	w.SplitBuckets = int(splitCount)
	w.LeafShareTime = time.Since(start)
	_ = totalBuckets
	return nil
}

// shareSubtreeLeaves processes one subtree, returning (split buckets,
// total buckets emitted).
func (w *World[D]) shareSubtreeLeaves(st *Subtree[D]) (splits, buckets int64) {
	for _, leaf := range tree.Leaves(st.Root, nil) {
		if leaf.Kind() != tree.KindLeaf || len(leaf.Particles) == 0 {
			continue
		}
		s, b := w.shareLeaf(st, leaf)
		splits += s
		buckets += b
	}
	return splits, buckets
}

// shareLeaf hands one leaf's particles to their owning partitions:
// directly for partitions hosted on the subtree's owner, by message
// otherwise. Returns (split buckets, buckets emitted). Also the unit of
// the incremental path's delta leaf share, which re-emits only dirty
// leaves.
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
