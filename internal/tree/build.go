package tree

import (
	"fmt"

	"paratreet/internal/particle"
	"paratreet/internal/psel"
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
	// MaxDepth caps recursion; deeper nodes become (possibly oversized)
	// leaves. Zero means a generous default.
	MaxDepth int
	// Owner is stamped on every built node.
	Owner int32
	// Workers sets the goroutine budget for the parallel build path; 0 or
	// 1 builds serially. The parallel build produces a tree identical to
	// the serial one (see parallel.go).
	Workers int
	// MortonOrdered asserts the input particles carry Morton keys for the
	// build box and arrive sorted by them. The parallel octree path then
	// derives octant boundaries by key-prefix binary search instead of
	// scanning positions (Cornerstone-style). Ignored by the serial path
	// and by non-octree types.
	MortonOrdered bool
}

func (c *BuildConfig) withDefaults() BuildConfig {
	out := *c
	if out.BucketSize <= 0 {
		out.BucketSize = 16
	}
	if out.MaxDepth <= 0 {
		if out.Type == Octree {
			out.MaxDepth = 20 // 63-bit keys support 21 octree levels
		} else {
			out.MaxDepth = 60
		}
	}
	return out
}

// Build constructs the tree for ps inside box, reordering ps in place so
// that every leaf's bucket is a contiguous subslice. The returned root has
// key rootKey; pass RootKey for a standalone tree or a subtree's global key
// when building a Subtree's piece of the global tree. rootLevel must be the
// key's level.
//
// For octrees, ps must already be sorted by Morton key within box so
// octant partitions are contiguous; Build verifies cheaply and re-sorts
// per-node when violated. Median trees reorder freely via quickselect.
func Build[D any](ps []particle.Particle, box vec.Box, rootKey uint64, rootLevel int, cfg BuildConfig) *Node[D] {
	c := cfg.withDefaults()
	if c.Workers > 1 {
		return buildParallel[D](ps, box, rootKey, rootLevel, &c)
	}
	return build[D](ps, box, rootKey, rootLevel, 0, &c)
}

func build[D any](ps []particle.Particle, box vec.Box, key uint64, level, depth int, cfg *BuildConfig) *Node[D] {
	if len(ps) == 0 {
		n := NewNode[D](key, level, KindEmptyLeaf, 0)
		n.Owner = cfg.Owner
		n.Box = box
		return n
	}
	if len(ps) <= cfg.BucketSize || depth >= cfg.MaxDepth {
		n := NewNode[D](key, level, KindLeaf, 0)
		n.Owner = cfg.Owner
		n.Box = box
		n.Particles = ps
		n.NParticles = len(ps)
		return n
	}

	b := cfg.Type.BranchFactor()
	n := NewNode[D](key, level, KindInternal, b)
	n.Owner = cfg.Owner
	n.Box = box
	n.NParticles = len(ps)

	logB := cfg.Type.LogB()
	switch cfg.Type {
	case Octree:
		bounds := octantPartition(ps, box)
		for i := 0; i < 8; i++ {
			sub := ps[bounds[i]:bounds[i+1]]
			child := build[D](sub, box.OctantBox(i), ChildKey(key, i, logB), level+1, depth+1, cfg)
			n.SetChild(i, child)
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
		n.SetChild(0, build[D](ps[:mid], loBox, ChildKey(key, 0, logB), level+1, depth+1, cfg))
		n.SetChild(1, build[D](ps[mid:], hiBox, ChildKey(key, 1, logB), level+1, depth+1, cfg))
	default:
		panic(fmt.Sprintf("tree: unknown tree type %d", cfg.Type))
	}
	return n
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
