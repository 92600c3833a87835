package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"paratreet"
	"paratreet/internal/collision"
	"paratreet/internal/knn"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/vec"
)

// Engine holds the resident tree and answers query batches with traversal
// waves. The tree is built once at construction (and on Refresh) over
// collision.Data, whose per-node particle count and radius/speed bounds
// serve all three query kinds. Waves run concurrently under a read lock;
// Refresh takes the write lock, so builds never race in-flight queries.
type Engine struct {
	// mu is the build/query reader-writer split: every wave holds the
	// read side, Refresh holds the write side.
	mu    sync.RWMutex
	sim   *paratreet.Simulation[collision.Data]
	procs int
	reg   *metrics.Registry

	// curWaves/peakWaves gauge wave concurrency over the shared tree,
	// the observable the race-mode acceptance test asserts on.
	curWaves  atomic.Int64
	peakWaves atomic.Int64
}

// NewEngine builds the resident tree over ps (taking ownership) with the
// given simulation config and returns the ready-to-query engine. Close
// releases the simulated machine.
func NewEngine(cfg paratreet.Config, ps []paratreet.Particle) (*Engine, error) {
	sim, err := paratreet.NewSimulation(cfg, collision.Accumulator{}, collision.Codec{}, ps)
	if err != nil {
		return nil, err
	}
	if err := sim.BuildOnly(); err != nil {
		sim.Close()
		return nil, err
	}
	return &Engine{sim: sim, procs: sim.Machine().NumProcs(), reg: cfg.Metrics}, nil
}

// Close stops the underlying simulated machine. Callers drain in-flight
// waves first (Batcher.Drain / Server.Drain).
func (e *Engine) Close() { e.sim.Close() }

// Refresh rebuilds the resident tree, optionally over a replacement
// particle set (nil keeps the current one). It excludes query waves for
// the duration of the build.
//
// With Config.Incremental set, a refresh whose particles moved only
// slightly is a delta refresh: trees are patched along dirty paths and
// unchanged cached state survives, bit-identical to a full rebuild (see
// BuildStats for which path ran).
//
// A replacement set the build rejects (a non-finite position) is dropped
// again: the engine keeps its previous particles and goes on answering
// from the tree built over them.
func (e *Engine) Refresh(ps []paratreet.Particle) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.sim.Particles()
	if ps != nil {
		if err := e.sim.SetParticles(ps); err != nil {
			return err
		}
	}
	if err := e.sim.BuildOnly(); err != nil {
		_ = e.sim.SetParticles(prev) // prev was accepted before: non-empty
		return err
	}
	return nil
}

// Registry returns the metrics registry the engine's simulation reports
// into (nil when Config.Metrics was not set).
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Snapshot returns the live observability snapshot (nil without metrics).
// It reads simulation state (config labels, particle counts), so it takes
// the read lock: a Refresh in progress replaces that state under the
// write lock, and an unlocked read here races the swap.
func (e *Engine) Snapshot() *metrics.Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sim.MetricsSnapshot()
}

// NumParticles returns the resident dataset size. Takes the read lock:
// Refresh replaces the particle slice under the write lock, and a bare
// len() read races SetParticles.
func (e *Engine) NumParticles() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sim.Particles())
}

// BuildStats reports what the most recent build (construction or Refresh)
// did: scratch or incremental, and what an incremental patch reused.
func (e *Engine) BuildStats() paratreet.BuildStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sim.BuildStats()
}

// Procs returns the simulated process count serving waves.
func (e *Engine) Procs() int { return e.procs }

// PeakConcurrentWaves returns the largest number of waves ever observed
// in flight simultaneously.
func (e *Engine) PeakConcurrentWaves() int64 { return e.peakWaves.Load() }

// RunBatch answers one coalesced batch of queries with a single traversal
// wave: queries become single-particle buckets, grouped by (home proc,
// kind) into one traversal each. A query's home is the process that owns
// the subtree holding its position, so the data it reaches first is local.
// kNN queries walk up-and-down, one after another, each nearest-first with
// its own shrinking radius; range and probe queries, whose radius is fixed,
// share one transposed top-down walk. Safe for concurrent use; answers are
// positional.
func (e *Engine) RunBatch(qs []Query) ([]Answer, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for i := range qs {
		if err := qs[i].Validate(); err != nil {
			return nil, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	cur := e.curWaves.Add(1)
	defer e.curWaves.Add(-1)
	for {
		peak := e.peakWaves.Load()
		if cur <= peak || e.peakWaves.CompareAndSwap(peak, cur) {
			break
		}
	}

	// One bucket per query, grouped by home proc and kind.
	subtrees := e.sim.World().Subtrees
	buckets := make([]*traverse.Bucket, len(qs))
	groups := make([][numQueryKinds][]*traverse.Bucket, e.procs)
	for i := range qs {
		q := &qs[i]
		home := i % e.procs // outside every subtree box: round-robin
		for _, st := range subtrees {
			if st.Box.Contains(q.Pos) {
				home = st.Owner
				break
			}
		}
		b := &traverse.Bucket{
			Box:       vec.NewBox(q.Pos, q.Pos),
			Particles: []particle.Particle{{ID: -1, Pos: q.Pos, Vel: q.Vel, Radius: q.Radius}},
		}
		switch q.Kind {
		case KNN:
			knn.Attach([]*traverse.Bucket{b}, q.K)
		case Range:
			b.State = &rangeState{r2: q.Radius * q.Radius}
		case Probe:
			b.State = &probeState{radius: q.Radius, speed: q.Vel.Norm(), dt: q.Dt}
		}
		buckets[i] = b
		groups[home][q.Kind] = append(groups[home][q.Kind], b)
	}

	w := e.sim.NewWave()
	for p := 0; p < e.procs; p++ {
		if bs := groups[p][KNN]; len(bs) > 0 {
			paratreet.WaveUpAndDown(w, p, bs, knn.GenericVisitor[collision.Data]{
				Count: func(d *collision.Data) int { return d.N },
			})
		}
		if bs := groups[p][Range]; len(bs) > 0 {
			paratreet.WaveDown(w, p, bs, rangeVisitor{})
		}
		if bs := groups[p][Probe]; len(bs) > 0 {
			paratreet.WaveDown(w, p, bs, probeVisitor{})
		}
	}
	w.Wait()

	out := make([]Answer, len(qs))
	for i := range qs {
		out[i] = answerOf(&qs[i], buckets[i])
	}
	return out, nil
}

// answerOf extracts one query's deterministically ordered answer from its
// bucket state after the wave.
func answerOf(q *Query, b *traverse.Bucket) Answer {
	var hits []Hit
	switch q.Kind {
	case KNN:
		st := b.State.(*knn.State)
		nbrs := st.Neighbors(0)
		hits = make([]Hit, 0, len(nbrs))
		for _, n := range nbrs {
			hits = append(hits, Hit{ID: n.ID, Dist: math.Sqrt(n.DistSq), Pos: n.Pos})
		}
	case Range:
		hits = b.State.(*rangeState).hits
	case Probe:
		hits = b.State.(*probeState).hits
	}
	if q.Kind == Probe {
		sort.Slice(hits, func(i, j int) bool { return hits[i].ID < hits[j].ID })
	} else {
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].Dist != hits[j].Dist {
				return hits[i].Dist < hits[j].Dist
			}
			return hits[i].ID < hits[j].ID
		})
	}
	return Answer{Hits: hits}
}
