package tree

import (
	"sync"
	"sync/atomic"

	"paratreet/internal/particle"
	"paratreet/internal/sfc"
)

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
// build. Children are folded in index order, so the result is
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
