package paratreet

import (
	"sync"

	"paratreet/internal/cache"
	"paratreet/internal/rt"
	"paratreet/internal/traverse"
)

// Wave is one batch of ad-hoc traversals over the resident tree — the
// reentrant query path that complements BuildOnly's build/refresh path.
// Unlike Run, which drives per-partition traversals and waits for global
// quiescence, a Wave tracks only its own traversals via their completion
// callbacks, so any number of waves may run concurrently over the same
// built tree (the software cache's insertions are designed for concurrent
// readers and fillers). Launch traversals from a single goroutine, then
// Wait; the results land in the buckets' State.
//
// Waves read the tree built by the most recent BuildOnly/Run iteration.
// Rebuilding (BuildOnly, Run, SetParticles) while waves are in flight is
// a race — callers serialize builds against waves (see internal/serve's
// Engine for the canonical reader-writer arrangement).
type Wave[D any] struct {
	s   *Simulation[D]
	wg  sync.WaitGroup
	seq int
}

// NewWave prepares an empty query wave over the simulation's resident
// tree. The tree must have been built (BuildOnly or a Run iteration).
func (s *Simulation[D]) NewWave() *Wave[D] {
	return &Wave[D]{s: s}
}

// WaveDown launches one top-down traversal of buckets against proc's view
// of the resident tree, as part of wave w. The buckets are ad-hoc query
// targets (typically one synthetic particle each) and need not correspond
// to tree leaves; visitor state must already be attached. The traversal
// style comes from the simulation's Config. Transposed, a tree node is
// visited once for all the buckets that reach it, which pays for searches
// whose radius is fixed up front (range, collision probes).
func WaveDown[D any, V traverse.Visitor[D]](w *Wave[D], proc int, buckets []*traverse.Bucket, visitor V) {
	p, c, view := w.add(proc)
	traverse.NewTopDown(p, c, view, buckets, visitor, w.s.cfg.Style, w.wg.Done).Start()
}

// WaveUpAndDown is the wave counterpart of StartUpAndDown: one up-and-down
// traversal of buckets against proc's view, as part of wave w. Each bucket
// walks alone, nearest subtrees first, so searches whose radius shrinks as
// they find candidates (k nearest neighbors) prune as they would one at a
// time. Ad-hoc buckets have no leaf key and start at the view root.
func WaveUpAndDown[D any, V traverse.Visitor[D]](w *Wave[D], proc int, buckets []*traverse.Bucket, visitor V) {
	p, c, view := w.add(proc)
	traverse.NewUpDown(p, c, view, buckets, visitor, w.wg.Done).Start()
}

// add counts one more traversal in the wave and returns where it runs:
// proc, its cache, and the next of the process's worker views.
func (w *Wave[D]) add(proc int) (*rt.Proc, *cache.Cache[D], int) {
	c := w.s.world.Caches[proc]
	p := w.s.machine.Proc(proc)
	view := c.ViewFor(w.seq % p.NumWorkers())
	w.seq++
	w.wg.Add(1)
	return p, c, view
}

// Wait blocks until every traversal launched on this wave has completed.
func (w *Wave[D]) Wait() {
	w.wg.Wait()
}
