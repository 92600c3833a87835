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

// Parallel tree build, after Cornerstone (Keller et al. 2023): with
// particles radix-sorted by Morton key, every octree node's children are
// contiguous key ranges whose boundaries a binary search over key
// prefixes finds in O(log n) — no position scan, no data movement — and
// disjoint subtrees then build concurrently. The goroutine-budget
// pattern bounds concurrency at BuildConfig.Workers: a spawn takes a
// token from an atomic counter and returns it on completion; when no
// token is available (or a subtree is too small to amortize a spawn) the
// recursion proceeds inline on the current goroutine.
//
// The parallel build is a drop-in replacement: node keys, kinds, boxes,
// bucket contents, and (via AccumulateParallel's in-order fold) Data are
// identical to the serial Build's, which the differential tests in
// parallel_test.go enforce across the tree-type x curve x leaf-size
// crossproduct.

// spawnCutoff is the minimum subtree size worth a goroutine: below it,
// partitioning is cheaper than scheduling.
const spawnCutoff = 4096

// buildParallel is the Workers>1 entry point dispatched from Build.
//
//paratreet:coldpath
func buildParallel[D any](ps []particle.Particle, box vec.Box, rootKey uint64, rootLevel int, cfg *BuildConfig) *Node[D] {
	var budget atomic.Int64
	budget.Store(int64(cfg.Workers - 1))
	var wg sync.WaitGroup
	root := buildPar[D](ps, box, rootKey, rootLevel, 0, cfg, &budget, &wg)
	wg.Wait()
	return root
}

// buildPar mirrors build (build.go) with concurrent child recursion.
// Children occupy disjoint subslices of ps and distinct child slots, so
// the only cross-goroutine coordination is the budget counter and the
// WaitGroup.
func buildPar[D any](ps []particle.Particle, box vec.Box, key uint64, level, depth int, cfg *BuildConfig, budget *atomic.Int64, wg *sync.WaitGroup) *Node[D] {
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
		var bounds [9]int
		if cfg.MortonOrdered && level < sfc.Bits {
			bounds = prefixPartition(ps, key, level)
		} else {
			bounds = octantPartition(ps, box)
		}
		for i := 0; i < 8; i++ {
			sub := ps[bounds[i]:bounds[i+1]]
			spawnChild(n, i, sub, box.OctantBox(i), ChildKey(key, i, logB), level+1, depth+1, cfg, budget, wg)
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
		spawnChild(n, 0, ps[:mid], loBox, ChildKey(key, 0, logB), level+1, depth+1, cfg, budget, wg)
		spawnChild(n, 1, ps[mid:], hiBox, ChildKey(key, 1, logB), level+1, depth+1, cfg, budget, wg)
	default:
		panic(fmt.Sprintf("tree: unknown tree type %d", cfg.Type))
	}
	return n
}

// spawnChild builds child slot i of n from sub, on a fresh goroutine if
// sub is large enough and a worker token is available, inline otherwise.
// SetChild on distinct slots is safe concurrently (atomic pointers).
// Spawn decisions are per-subtree, not per-visit — explicitly cold.
//
//paratreet:coldpath
func spawnChild[D any](n *Node[D], i int, sub []particle.Particle, box vec.Box, key uint64, level, depth int, cfg *BuildConfig, budget *atomic.Int64, wg *sync.WaitGroup) {
	if len(sub) >= spawnCutoff && budget.Add(-1) >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.SetChild(i, buildPar[D](sub, box, key, level, depth, cfg, budget, wg))
			budget.Add(1)
		}()
		return
	}
	if len(sub) >= spawnCutoff {
		budget.Add(1) // lost the race for a token; return it
	}
	n.SetChild(i, buildPar[D](sub, box, key, level, depth, cfg, budget, wg))
}

// mortonPrefix returns the 63-bit Morton prefix encoded in a path key at
// the given level, left-aligned: path key 1|t1|...|tL becomes
// t1...tL followed by zero triplets.
//
//paratreet:hotpath
func mortonPrefix(key uint64, level int) uint64 {
	return (key - 1<<(3*uint(level))) << (3 * uint(sfc.Bits-level))
}

// prefixPartition returns the nine octant boundary offsets of a
// Morton-sorted slice by binary search on key prefixes: child i of the
// node at (key, level) owns exactly the keys in
// [prefix|i<<shift, prefix|(i+1)<<shift). Requires level < sfc.Bits.
// The binary search is hand-rolled: sort.Search takes a closure, which
// the hotpath contract forbids on the per-node build path.
//
//paratreet:hotpath
func prefixPartition(ps []particle.Particle, key uint64, level int) [9]int {
	prefix := mortonPrefix(key, level)
	shift := 3 * uint(sfc.Bits-level-1)
	var bounds [9]int
	bounds[8] = len(ps)
	for i := 1; i < 8; i++ {
		first := prefix | uint64(i)<<shift
		lo, hi := bounds[i-1], len(ps)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ps[mid].Key < first {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[i] = lo
	}
	return bounds
}

// AccumulateParallel fills in Data like Accumulate, computing sibling
// subtrees concurrently under the same goroutine-budget pattern as the
// parallel build. Children are folded in index order, so the result is
// bit-identical to the serial Accumulate — concurrency changes where
// child Data is computed, never the order it is combined.
//
//paratreet:coldpath
func AccumulateParallel[D any](n *Node[D], acc Accumulator[D], workers int) D {
	if workers <= 1 || n == nil {
		return Accumulate(n, acc)
	}
	var budget atomic.Int64
	budget.Store(int64(workers - 1))
	return accumulatePar(n, acc, &budget)
}

func accumulatePar[D any](n *Node[D], acc Accumulator[D], budget *atomic.Int64) D {
	if n == nil {
		return acc.Empty()
	}
	if n.Kind() != KindInternal || n.NParticles < spawnCutoff {
		return Accumulate(n, acc)
	}
	var wg sync.WaitGroup
	for i := 0; i < n.NumChildren(); i++ {
		c := n.Child(i)
		if c == nil || c.NParticles < spawnCutoff {
			continue
		}
		if budget.Add(-1) >= 0 {
			wg.Add(1)
			go func(c *Node[D]) {
				defer wg.Done()
				accumulatePar(c, acc, budget)
				budget.Add(1)
			}(c)
		} else {
			budget.Add(1)
			accumulatePar(c, acc, budget)
		}
	}
	wg.Wait()
	d := acc.Empty()
	for i := 0; i < n.NumChildren(); i++ {
		c := n.Child(i)
		switch {
		case c == nil:
			d = acc.Add(d, acc.Empty())
		case c.Kind() == KindInternal && c.NParticles >= spawnCutoff:
			d = acc.Add(d, c.Data) // computed above (inline or spawned)
		default:
			d = acc.Add(d, Accumulate(c, acc))
		}
	}
	n.Data = d
	return d
}
