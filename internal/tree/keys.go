package tree

import (
	"sync"

	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

// KeyFunc maps a position to its space-filling-curve key within a box
// (sfc.MortonKey, sfc.HilbertKey).
type KeyFunc func(vec.Vec3, vec.Box) uint64

// keyBlock is how many particles KeyScan keys before handing them to the
// order scan: 256 particles are 36 KB, so the scan finds them in cache.
const keyBlock = 256

// KeyScan is the one pass a build makes over its particle array before
// sorting it. For every particle it reduces the bounding box, checks the
// position is finite, assigns the key within universe, counts the keys
// that changed, and feeds the order scan of s (which it resets), so that
// s.SortInto or s.SortInPlace can follow without another look at the
// array. It returns the bounding box, the number of changed keys, and the
// index of the first particle with a non-finite position, -1 when there
// is none; box and keys mean nothing otherwise, and a build must stop
// there.
//
// With workers > 1 and a large array the chunks are keyed on that many
// goroutines and the order scan, which is sequential by nature, follows
// over the keys alone. Keys, box and count do not depend on workers.
func KeyScan(ps []particle.Particle, universe vec.Box, key KeyFunc, workers int, s *particle.Sorter) (box vec.Box, movers, bad int) {
	s.Reset()
	if workers <= 1 || len(ps) < spawnCutoff {
		return keyChunk(ps, 0, len(ps), universe, key, s)
	}
	type part struct {
		box         vec.Box
		movers, bad int
	}
	parts := make([]part, workers)
	chunk := (len(ps) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := min(w*chunk, len(ps)), min((w+1)*chunk, len(ps))
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			p.box, p.movers, p.bad = keyChunk(ps, lo, hi, universe, key, nil)
		}(&parts[w])
	}
	wg.Wait()
	box, bad = vec.EmptyBox(), -1
	for _, p := range parts {
		box = box.Union(p.box)
		movers += p.movers
		if bad < 0 {
			bad = p.bad
		}
	}
	s.Scan(ps, len(ps))
	return box, movers, bad
}

// keyChunk runs KeyScan's pass over ps[lo:hi] a block at a time; s is nil
// when the order scan runs separately.
func keyChunk(ps []particle.Particle, lo, hi int, universe vec.Box, key KeyFunc, s *particle.Sorter) (box vec.Box, movers, bad int) {
	box, bad = vec.EmptyBox(), -1
	for ; lo < hi; lo += keyBlock {
		end := min(lo+keyBlock, hi)
		b, nonFinite := particle.Bounds(ps[lo:end])
		if nonFinite >= 0 && bad < 0 {
			bad = lo + nonFinite
		}
		box = box.Union(b)
		for i := lo; i < end; i++ {
			if k := key(ps[i].Pos, universe); k != ps[i].Key {
				ps[i].Key = k
				movers++
			}
		}
		if s != nil {
			s.Scan(ps, end)
		}
	}
	return box, movers, bad
}

// AssignKeys computes and stores the SFC key of every particle for the
// given curve and universe box, then sorts them into (Key, ID) order.
func AssignKeys(ps []particle.Particle, universe vec.Box, key KeyFunc) {
	AssignKeysParallel(ps, universe, key, 1)
}

// AssignKeysParallel is AssignKeys with up to workers goroutines sharing
// the key computation and the sort; the resulting order is the same at
// every worker count.
func AssignKeysParallel(ps []particle.Particle, universe vec.Box, key KeyFunc, workers int) {
	var s particle.Sorter
	KeyScan(ps, universe, key, workers, &s)
	s.SortInPlace(ps, workers)
}
