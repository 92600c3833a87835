package main

import (
	"math/rand"
	"sort"
	"time"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// knn_cosmo: SPH density over a cosmological volume. The other traversal
// engine (up-and-down) and kernel, the parallel build, and a machine with
// one process — so cache fetches, rt messages and the subtree codec are
// bypassed, and a change to them must not move this workload.

const (
	knnN        = 20000
	knnK        = 32
	knnWarmup   = 2
	knnCheckGap = 25 // every 25th step is a brute-force check, not a timing sample
	knnCheckN   = 64 // particles compared against the brute-force scan
)

type knnSim = paratreet.Simulation[knn.Data]

func knnConfig(reg *paratreet.MetricsRegistry) paratreet.Config {
	return paratreet.Config{
		Procs: 1, WorkersPerProc: 2, BuildWorkers: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16,
		Metrics:    reg,
	}
}

func knnParticles(n int, seed int64) []particle.Particle {
	return cosmological(n, seed)
}

func knnLaunch[V traverse.Visitor[knn.Data]](v V) func(*knnSim, int) {
	return func(s *knnSim, _ int) {
		for _, p := range s.Partitions() {
			knn.Attach(p.Buckets(), knnK)
		}
		paratreet.StartUpAndDown(s, func(*paratreet.Partition[knn.Data]) V { return v })
	}
}

var knnVisitor = knn.Visitor{K: knnK, ExcludeSelf: true}

func knnDensity(s *knnSim, _ int) {
	par := sph.Params{K: knnK, Gamma: 5.0 / 3.0, U: 1}
	s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
		st := b.State.(*knn.State)
		for i := range b.Particles {
			sph.DensityFromNeighbors(&b.Particles[i], st.Neighbors(i))
			sph.Pressure(&b.Particles[i], par)
		}
	})
}

// knnStep is one plain iteration: the kNN search, then density and
// pressure.
func knnStep(sim *knnSim) (stepTimes, error) {
	return timedRun(sim, knnLaunch(knnVisitor), knnDensity)
}

// newKNNSim constructs the simulation, times its first (scratch) build and
// runs the warm-up steps: the workload's set-up.
func newKNNSim(ps []particle.Particle, reg *paratreet.MetricsRegistry) (*knnSim, time.Duration, error) {
	sim, err := paratreet.NewSimulation(knnConfig(reg), knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	err = sim.BuildOnly()
	firstBuild := time.Since(start)
	for i := 0; i < knnWarmup && err == nil; i++ {
		_, err = knnStep(sim)
	}
	if err != nil {
		sim.Close()
		return nil, 0, err
	}
	return sim, firstBuild, nil
}

// knnMismatches checks a seeded sample of particles: each one's found
// neighbours must be knnK distinct particles whose true squared distances
// are exactly the knnK smallest of a brute-force scan over all particles
// (self excluded). Comparing distances rather than bare IDs makes the
// check independent of which of two equidistant particles a scan meets
// first. It returns how many sampled particles fail.
func knnMismatches(s *knnSim, rng *rand.Rand, sample int) int {
	type target struct {
		b *paratreet.Bucket
		i int
	}
	var all []particle.Particle
	var targets []target
	s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
		for i := range b.Particles {
			targets = append(targets, target{b, i})
		}
		all = append(all, b.Particles...)
	})
	pos := make(map[int64]vec.Vec3, len(all))
	for i := range all {
		pos[all[i].ID] = all[i].Pos
	}
	bad := 0
	best := make([]float64, 0, knnK+1)
	for c := 0; c < sample; c++ {
		t := targets[rng.Intn(len(targets))]
		p := &t.b.Particles[t.i]
		// Brute force: the knnK smallest squared distances, ascending.
		best = best[:0]
		for j := range all {
			if all[j].ID == p.ID {
				continue
			}
			d2 := all[j].Pos.DistSq(p.Pos)
			if len(best) == knnK && d2 >= best[knnK-1] {
				continue
			}
			at := sort.SearchFloat64s(best, d2)
			best = append(best, 0)
			copy(best[at+1:], best[at:])
			best[at] = d2
			if len(best) > knnK {
				best = best[:knnK]
			}
		}
		nbrs := t.b.State.(*knn.State).Neighbors(t.i)
		got := make([]float64, 0, len(nbrs))
		seen := make(map[int64]bool, len(nbrs))
		ok := len(nbrs) == len(best)
		for _, nb := range nbrs {
			q, known := pos[nb.ID]
			if !known || seen[nb.ID] || nb.ID == p.ID || q.DistSq(p.Pos) != nb.DistSq {
				ok = false
				break
			}
			seen[nb.ID] = true
			got = append(got, nb.DistSq)
		}
		if ok {
			sort.Float64s(got)
			for k := range got {
				if got[k] != best[k] {
					ok = false
					break
				}
			}
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// knnLoop runs steps until the deadline, timing all but the check steps,
// and returns how many checks it made.
func knnLoop(sim *knnSim, reg *paratreet.MetricsRegistry, l *stepLoop, seed int64, d time.Duration) (checks int, err error) {
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		l.attempted++
		if i%knnCheckGap != knnCheckGap-1 {
			if err := timedStep(l, sim, reg, func() (stepTimes, error) { return knnStep(sim) }); err != nil {
				return checks, err
			}
			continue
		}
		var bad int
		_, err := timedRun(sim, knnLaunch(knnVisitor), func(s *knnSim, it int) {
			bad = knnMismatches(s, rng, knnCheckN)
			knnDensity(s, it)
		})
		if err != nil {
			return checks, err
		}
		checks++
		if bad > 0 {
			l.failed++
		}
	}
	return checks, nil
}

func runKNN(o options, r *result) error {
	n := scaled(knnN, o.quick)
	prepStart := time.Now()
	base := knnParticles(n, o.seed)
	prepare := time.Since(prepStart)
	if o.trace {
		return traceKNN(o, r, base, prepare)
	}
	setupS, sim, err := measureSetup(base, func(ps []particle.Particle) (*knnSim, error) {
		sim, _, err := newKNNSim(ps, nil)
		return sim, err
	})
	if err != nil {
		return err
	}
	defer sim.Close()
	l := newStepLoop(n, nil)
	checks, err := knnLoop(sim, nil, l, o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	r.count("steps", l.attempted, l.failed)
	r.notef("%d brute-force checks of %d particles each", checks, knnCheckN)
	return l.endToEnd(r, setupS, func() error {
		_, err := knnStep(sim)
		return err
	})
}

// countingKNN counts kernel calls and delegates to the real visitor.
type countingKNN struct {
	inner knn.Visitor
	c     *kernelCounts
}

func (v countingKNN) Open(src *tree.Node[knn.Data], tgt *traverse.Bucket) bool {
	v.c.opens.Add(1)
	return v.inner.Open(src, tgt)
}

func (v countingKNN) Node(src *tree.Node[knn.Data], tgt *traverse.Bucket) {
	v.c.nodeCalls.Add(1)
}

func (v countingKNN) Leaf(src *tree.Node[knn.Data], tgt *traverse.Bucket) {
	v.c.leafPairs.Add(int64(len(src.Particles) * len(tgt.Particles)))
	v.inner.Leaf(src, tgt)
}

func traceKNN(o options, r *result, base []particle.Particle, prepare time.Duration) error {
	n := len(base)
	budget := time.Duration(o.seconds * float64(time.Second))

	plainSim, _, err := newKNNSim(particle.Clone(base), nil)
	if err != nil {
		return err
	}
	plain := newStepLoop(n, nil)
	_, err = knnLoop(plainSim, nil, plain, o.seed, budget*3/10)
	plainSim.Close()
	if err != nil {
		return err
	}

	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	sim, firstBuild, err := newKNNSim(particle.Clone(base), reg)
	if err != nil {
		return err
	}
	defer sim.Close()
	r.set("core.scratch_build_ms", ms(firstBuild))
	reg.Reset()
	r.spans = newSpanLog()
	l := newStepLoop(n, r.spans)
	gc := readGC()
	if _, err := knnLoop(sim, reg, l, o.seed, budget*5/10); err != nil {
		return err
	}
	// One process: imbalance across processes is 1 by construction.
	l.perProcLocal = []time.Duration{l.counters.phases[paratreet.PhaseLocalTraversal]}
	if err := traceCommon(r, sim, l, plain, gc, prepare); err != nil {
		return err
	}

	counts := &kernelCounts{}
	for i := 0; i < extraSteps; i++ {
		if _, err := timedRun(sim, knnLaunch(countingKNN{inner: knnVisitor, c: counts}), knnDensity); err != nil {
			return err
		}
	}
	opens := float64(counts.opens.Load()) / extraSteps
	leafPairs := float64(counts.leafPairs.Load()) / extraSteps
	r.set("knn.leaf_pairs_per_iter", leafPairs)
	openNs, leafNs := probeKNNKernels(sim, o.seed)
	r.set("knn.open_ns", openNs)
	r.set("knn.leaf_ns_per_pair", leafNs)
	r.set("app.kernel_share", ratio(opens*openNs+leafPairs*leafNs, l.counters.pumpNs()/float64(l.steps())))

	probeBuildPipeline(r, sim.Particles(), knnConfig(nil), knn.Accumulator{})
	return nil
}

// probeKNNKernels times Open and Leaf (per particle pair) over seeded
// (node, bucket) pairs right after a traversal, when every heap is full
// and its bound finite — the state most of a traversal's calls see.
func probeKNNKernels(sim *knnSim, seed int64) (openNs, leafNsPerPair float64) {
	nodes, leaves := treeNodes(sim)
	var buckets []*paratreet.Bucket
	sim.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) { buckets = append(buckets, b) })
	if len(nodes) == 0 || len(leaves) == 0 || len(buckets) == 0 {
		return 0, 0
	}
	sample := blockPairs(rand.New(rand.NewSource(seed)), len(nodes), len(leaves), len(buckets))
	opened := 0
	start := time.Now()
	for _, p := range sample {
		if knnVisitor.Open(nodes[p.node], buckets[p.bucket]) {
			opened++
		}
	}
	openNs = float64(time.Since(start).Nanoseconds()) / probePairs
	probeSink.Add(int64(opened))
	var npairs int
	start = time.Now()
	for _, p := range sample {
		knnVisitor.Leaf(leaves[p.leaf], buckets[p.bucket])
		npairs += len(leaves[p.leaf].Particles) * len(buckets[p.bucket].Particles)
	}
	leafNsPerPair = ratio(float64(time.Since(start).Nanoseconds()), float64(npairs))
	return openNs, leafNsPerPair
}
