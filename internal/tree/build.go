package tree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"paratreet/internal/particle"
	"paratreet/internal/psel"
	"paratreet/internal/sfc"
	"paratreet/internal/vec"
)

// Type selects the tree's spatial subdivision strategy. The paper's built-in
// trees are the octree (equal-volume octants, aspect ratio 1), the k-d tree
// (median split, cycling dimensions, always balanced), and the case study's
// longest-dimension tree (median split along the current box's longest
// axis, suited to flattened domains like planetesimal disks).
type Type int

const (
	// Octree subdivides each node into 8 equal-volume octants.
	Octree Type = iota
	// KD splits at the particle median along dimensions cycling x,y,z.
	KD
	// LongestDim splits at the particle median along the box's longest axis.
	LongestDim
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Octree:
		return "oct"
	case KD:
		return "kd"
	case LongestDim:
		return "longest-dim"
	default:
		return "unknown"
	}
}

// BranchFactor returns the node fan-out for the tree type.
func (t Type) BranchFactor() int {
	if t == Octree {
		return 8
	}
	return 2
}

// LogB returns log2(BranchFactor).
func (t Type) LogB() uint {
	if t == Octree {
		return 3
	}
	return 1
}

// BuildConfig parameterizes a tree build.
type BuildConfig struct {
	// Type is the subdivision strategy.
	Type Type
	// BucketSize is the maximum number of particles per leaf.
	BucketSize int
	// MaxDepth caps recursion below the build's root; deeper nodes become
	// (possibly oversized) leaves. Zero means a generous default. An octree
	// also stops at level sfc.Bits, the deepest a path key can name.
	MaxDepth int
	// Owner is stamped on every built node.
	Owner int32
	// Workers sets the goroutine budget of the build; 0 or 1 spawns
	// nothing. The tree does not depend on it.
	Workers int
	// MortonOrdered asserts the input particles carry Morton keys for the
	// build box and arrive sorted by them. An octree then finds octant
	// boundaries by key-prefix binary search instead of scanning positions
	// (Cornerstone-style), at every worker count. Ignored by non-octree
	// types.
	MortonOrdered bool

	// maxLevel is MaxDepth as an absolute level, set by resolved.
	maxLevel int
}

// resolved fills the defaults for a build (or patch) whose root sits at
// rootLevel.
func (c BuildConfig) resolved(rootLevel int) BuildConfig {
	if c.BucketSize <= 0 {
		c.BucketSize = 16
	}
	if c.MaxDepth <= 0 {
		if c.Type == Octree {
			c.MaxDepth = 20
		} else {
			c.MaxDepth = 60
		}
	}
	c.maxLevel = rootLevel + c.MaxDepth
	if c.Type == Octree {
		c.maxLevel = min(c.maxLevel, sfc.Bits)
	}
	return c
}

// shape is the one decision every build and every patch makes about a
// slice of n particles at a level: no node content, a bucket, or a split.
func (c *BuildConfig) shape(n, level int) Kind {
	switch {
	case n == 0:
		return KindEmptyLeaf
	case n <= c.BucketSize || level >= c.maxLevel:
		return KindLeaf
	default:
		return KindInternal
	}
}

// octants is the one octree split rule: the nine offsets that bound the
// eight children's particles within ps, by key prefix when the keys can be
// trusted and by position (reordering ps) when they cannot. Only nodes at a
// level below maxLevel split, so level < sfc.Bits as the prefix search
// requires.
func (c *BuildConfig) octants(ps []particle.Particle, box vec.Box, key uint64, level int) [9]int {
	if c.MortonOrdered {
		return prefixPartition(ps, key, level)
	}
	return octantPartition(ps, box)
}

// Build constructs the tree for ps inside box, reordering ps in place so
// that every leaf's bucket is a contiguous subslice. The returned root has
// key rootKey; pass RootKey for a standalone tree or a subtree's global key
// when building a Subtree's piece of the global tree. rootLevel must be the
// key's level.
//
// For octrees, ps must already be sorted by Morton key within box so
// octant partitions are contiguous; without cfg.MortonOrdered Build
// verifies cheaply and re-sorts per-node when violated. Median trees
// reorder freely via quickselect.
func Build[D any](ps []particle.Particle, box vec.Box, rootKey uint64, rootLevel int, cfg BuildConfig) *Node[D] {
	return newBuilder[D](cfg, rootLevel).build(ps, box, rootKey, rootLevel)
}

// builder is the one tree-building recursion, after Cornerstone (Keller
// et al. 2023): with particles radix-sorted by Morton key, every octree
// node's children are contiguous key ranges whose boundaries a binary
// search over key prefixes finds in O(log n) — no position scan, no data
// movement — and disjoint subtrees then build concurrently. Concurrency is
// bounded at BuildConfig.Workers by a token budget: a spawn takes a token
// and returns it on completion; when none is available (or a subtree is
// too small to amortize a spawn) the recursion proceeds inline. Workers <=
// 1 is a budget of zero: the same recursion, never spawning. Node keys,
// kinds, boxes and bucket contents do not depend on the budget, which
// parallel_test.go enforces across the tree-type x curve x leaf-size
// crossproduct.
type builder[D any] struct {
	cfg    BuildConfig
	budget atomic.Int64
	wg     sync.WaitGroup
}

func newBuilder[D any](cfg BuildConfig, rootLevel int) *builder[D] {
	b := &builder[D]{cfg: cfg.resolved(rootLevel)}
	b.budget.Store(int64(max(cfg.Workers, 1) - 1))
	return b
}

// spawnCutoff is the minimum subtree size worth a goroutine: below it,
// partitioning is cheaper than scheduling.
const spawnCutoff = 4096

// build runs the recursion from one root and waits for what it spawned.
func (b *builder[D]) build(ps []particle.Particle, box vec.Box, key uint64, level int) *Node[D] {
	root := b.node(ps, box, key, level)
	b.wg.Wait()
	return root
}

// node builds the node for ps. Children occupy disjoint subslices of ps
// and distinct child slots, so the only cross-goroutine coordination is
// the budget counter and the WaitGroup.
func (b *builder[D]) node(ps []particle.Particle, box vec.Box, key uint64, level int) *Node[D] {
	cfg := &b.cfg
	kind := cfg.shape(len(ps), level)
	if kind != KindInternal {
		n := NewNode[D](key, level, kind, 0)
		n.Owner = cfg.Owner
		n.Box = box
		if kind == KindLeaf {
			n.Particles = ps
			n.NParticles = len(ps)
		}
		return n
	}

	n := NewNode[D](key, level, KindInternal, cfg.Type.BranchFactor())
	n.Owner = cfg.Owner
	n.Box = box
	n.NParticles = len(ps)

	logB := cfg.Type.LogB()
	switch cfg.Type {
	case Octree:
		bounds := cfg.octants(ps, box, key, level)
		for i := 0; i < 8; i++ {
			b.child(n, i, ps[bounds[i]:bounds[i+1]], box.OctantBox(i), ChildKey(key, i, logB))
		}
	case KD, LongestDim:
		dim := level % 3
		if cfg.Type == LongestDim {
			dim = box.LongestDim()
		}
		mid := len(ps) / 2
		psel.SelectNth(ps, mid, dim)
		split := psel.SplitPlane(ps, mid, dim)
		loBox, hiBox := box.SplitAt(dim, split)
		b.child(n, 0, ps[:mid], loBox, ChildKey(key, 0, logB))
		b.child(n, 1, ps[mid:], hiBox, ChildKey(key, 1, logB))
	default:
		panic(fmt.Sprintf("tree: unknown tree type %d", cfg.Type))
	}
	return n
}

// child builds child slot i of n from sub, on a fresh goroutine if sub is
// large enough and a worker token is available, inline otherwise. SetChild
// on distinct slots is safe concurrently (atomic pointers). Spawn
// decisions are per-subtree, not per-visit — explicitly cold.
//
//paratreet:coldpath
func (b *builder[D]) child(n *Node[D], i int, sub []particle.Particle, box vec.Box, key uint64) {
	if len(sub) >= spawnCutoff {
		if b.budget.Add(-1) >= 0 {
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				n.SetChild(i, b.node(sub, box, key, n.Level+1))
				b.budget.Add(1)
			}()
			return
		}
		b.budget.Add(1) // no token; return the one taken
	}
	n.SetChild(i, b.node(sub, box, key, n.Level+1))
}

// octantPartition reorders ps so particles of octant i occupy
// ps[bounds[i]:bounds[i+1]], using a stable counting sort that preserves
// SFC order within each octant. It returns the 9 boundary offsets.
func octantPartition(ps []particle.Particle, box vec.Box) [9]int {
	var counts [8]int
	octs := make([]uint8, len(ps))
	for i := range ps {
		o := uint8(box.Octant(ps[i].Pos))
		octs[i] = o
		counts[o]++
	}
	var bounds [9]int
	for i := 0; i < 8; i++ {
		bounds[i+1] = bounds[i] + counts[i]
	}
	// Check if already partitioned (the common case for Morton-sorted
	// input) to avoid the copy.
	sorted := true
	for i := 1; i < len(octs); i++ {
		if octs[i] < octs[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return bounds
	}
	tmp := make([]particle.Particle, len(ps))
	var next [8]int
	copy(next[:], bounds[:8])
	for i := range ps {
		tmp[next[octs[i]]] = ps[i]
		next[octs[i]]++
	}
	copy(ps, tmp)
	return bounds
}
