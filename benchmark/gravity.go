package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// gravity_plummer: the paper's headline loop. Barnes-Hut over clustered
// Plummer spheres on two single-worker processes, so about nine tenths of
// a step is top-down traversal with remote fetches: traverse, gravity,
// cache, rt and the subtree codec do the work, core and tree little.

const (
	gravityN        = 20000
	gravityWarmup   = 2
	gravityCheckGap = 25    // every 25th step is an accuracy check, not a timing sample
	gravityCheckN   = 256   // particles compared against the direct sum
	gravityErrLimit = 0.005 // median relative acceleration error
	gravityDt       = 1e-4
)

var gravityParams = gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}

type gravSim = paratreet.Simulation[gravity.CentroidData]

func gravityConfig(reg *paratreet.MetricsRegistry) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16, FetchDepth: 3,
		Metrics: reg,
	}
}

func gravityParticles(n int, seed int64) []particle.Particle {
	return clustered(n, seed, 8)
}

// gravityLaunch is the driver's traversal body with visitor v.
func gravityLaunch[V traverse.Visitor[gravity.CentroidData]](v V) func(*gravSim, int) {
	return func(s *gravSim, _ int) {
		s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
			particle.ResetAcc(b.Particles)
		})
		paratreet.StartDown(s, func(*paratreet.Partition[gravity.CentroidData]) V { return v })
	}
}

func gravityKickDrift(s *gravSim, _ int) {
	s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
		gravity.KickDrift(b.Particles, gravityDt)
	})
}

// gravityStep is one plain iteration: the real visitor, then kick-drift.
func gravityStep(sim *gravSim) (stepTimes, error) {
	return timedRun(sim, gravityLaunch(gravity.New(gravityParams)), gravityKickDrift)
}

// newGravitySim constructs the simulation, times its first (scratch) build
// and runs the warm-up steps: the workload's set-up.
func newGravitySim(ps []particle.Particle, reg *paratreet.MetricsRegistry) (*gravSim, time.Duration, error) {
	sim, err := paratreet.NewSimulation(gravityConfig(reg), gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	err = sim.BuildOnly()
	firstBuild := time.Since(start)
	for i := 0; i < gravityWarmup && err == nil; i++ {
		_, err = gravityStep(sim)
	}
	if err != nil {
		sim.Close()
		return nil, 0, err
	}
	return sim, firstBuild, nil
}

// sampledAccelError compares the accelerations the traversal left on a
// seeded sample of the buckets' particles with the softened direct sum
// over all of them, and returns the median relative error.
func sampledAccelError(s *gravSim, rng *rand.Rand, sample int) float64 {
	var all []particle.Particle
	s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
		all = append(all, b.Particles...)
	})
	sample = min(sample, len(all))
	got := make([]particle.Particle, sample)
	ref := make([]particle.Particle, sample)
	eps2 := gravityParams.Soft * gravityParams.Soft
	for k := range got {
		p := all[rng.Intn(len(all))]
		got[k] = p
		var acc vec.Vec3
		for j := range all {
			q := &all[j]
			if q.ID == p.ID {
				continue
			}
			dx := q.Pos.Sub(p.Pos)
			r2 := dx.NormSq() + eps2
			acc = acc.Add(dx.Scale(gravityParams.G * q.Mass / (r2 * math.Sqrt(r2))))
		}
		ref[k].Acc = acc
	}
	return gravity.MedianError(gravity.AccelError(got, ref))
}

// gravityLoop runs steps on sim until the deadline, timing all but the
// accuracy-check steps, and returns the checks' median errors. reg is nil
// for an untraced simulation.
func gravityLoop(sim *gravSim, reg *paratreet.MetricsRegistry, l *stepLoop, seed int64, d time.Duration) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var errs []float64
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		l.attempted++
		if i%gravityCheckGap != gravityCheckGap-1 {
			if err := timedStep(l, sim, reg, func() (stepTimes, error) { return gravityStep(sim) }); err != nil {
				return errs, err
			}
			continue
		}
		var medErr float64
		_, err := timedRun(sim, gravityLaunch(gravity.New(gravityParams)), func(s *gravSim, it int) {
			medErr = sampledAccelError(s, rng, gravityCheckN)
			gravityKickDrift(s, it)
		})
		if err != nil {
			return errs, err
		}
		errs = append(errs, medErr)
		if !(medErr <= gravityErrLimit) {
			l.failed++
		}
	}
	return errs, nil
}

func runGravity(o options, r *result) error {
	n := scaled(gravityN, o.quick)
	prepStart := time.Now()
	base := gravityParticles(n, o.seed)
	prepare := time.Since(prepStart)
	if o.trace {
		return traceGravity(o, r, base, prepare)
	}
	setupS, sim, err := measureSetup(base, func(ps []particle.Particle) (*gravSim, error) {
		sim, _, err := newGravitySim(ps, nil)
		return sim, err
	})
	if err != nil {
		return err
	}
	defer sim.Close()
	l := newStepLoop(n, nil)
	errs, err := gravityLoop(sim, nil, l, o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	r.count("steps", l.attempted, l.failed)
	r.notef("accel_err_median %.6f over %d checks of %d particles (limit %.3f)", median(errs), len(errs), gravityCheckN, gravityErrLimit)
	return l.endToEnd(r, setupS, func() error {
		_, err := gravityStep(sim)
		return err
	})
}

// kernelCounts tallies visitor calls from a counting wrapper.
type kernelCounts struct {
	opens, nodeCalls, leafPairs atomic.Int64
}

// countingGravity counts kernel calls and delegates to the real visitor.
type countingGravity struct {
	inner gravity.Visitor[gravity.CentroidData]
	c     *kernelCounts
}

func (v countingGravity) Open(src *tree.Node[gravity.CentroidData], tgt *traverse.Bucket) bool {
	v.c.opens.Add(1)
	return v.inner.Open(src, tgt)
}

func (v countingGravity) Node(src *tree.Node[gravity.CentroidData], tgt *traverse.Bucket) {
	v.c.nodeCalls.Add(1)
	v.inner.Node(src, tgt)
}

func (v countingGravity) Leaf(src *tree.Node[gravity.CentroidData], tgt *traverse.Bucket) {
	v.c.leafPairs.Add(int64(len(src.Particles) * len(tgt.Particles)))
	v.inner.Leaf(src, tgt)
}

// walkOnlyGravity makes the same open decisions as the gravity visitor —
// so the same frames, fetches and parks — and applies no kernel: what is
// left is the traversal engine's own cost.
type walkOnlyGravity struct {
	inner gravity.Visitor[gravity.CentroidData]
}

func (v walkOnlyGravity) Open(src *tree.Node[gravity.CentroidData], tgt *traverse.Bucket) bool {
	return v.inner.Open(src, tgt)
}
func (walkOnlyGravity) Node(*tree.Node[gravity.CentroidData], *traverse.Bucket) {}
func (walkOnlyGravity) Leaf(*tree.Node[gravity.CentroidData], *traverse.Bucket) {}

// extraSteps is how many counting steps, and how many walk-only steps, a
// traced run adds after its timed stretch.
const extraSteps = 3

// traceGravity is the traced run: an untraced stretch for the overhead
// baseline, the traced stretch the spans and counters come from, a few
// counting and walk-only steps, then the probes.
func traceGravity(o options, r *result, base []particle.Particle, prepare time.Duration) error {
	n := len(base)
	budget := time.Duration(o.seconds * float64(time.Second))

	plainSim, _, err := newGravitySim(particle.Clone(base), nil)
	if err != nil {
		return err
	}
	plain := newStepLoop(n, nil)
	_, err = gravityLoop(plainSim, nil, plain, o.seed, budget*3/10)
	plainSim.Close()
	if err != nil {
		return err
	}

	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	sim, firstBuild, err := newGravitySim(particle.Clone(base), reg)
	if err != nil {
		return err
	}
	defer sim.Close()
	r.set("core.scratch_build_ms", ms(firstBuild))
	reg.Reset()
	r.spans = newSpanLog()
	l := newStepLoop(n, r.spans)
	gc := readGC()
	procBefore := sim.Machine().PhasePerProc()
	errs, err := gravityLoop(sim, reg, l, o.seed, budget*4/10)
	if err != nil {
		return err
	}
	for p, ph := range sim.Machine().PhasePerProc() {
		l.perProcLocal = append(l.perProcLocal, ph[paratreet.PhaseLocalTraversal]-procBefore[p][paratreet.PhaseLocalTraversal])
	}
	if err := traceCommon(r, sim, l, plain, gc, prepare); err != nil {
		return err
	}
	r.set("gravity.accel_err_median", median(errs))

	// Counting steps: the same iteration with every kernel call tallied.
	counts := &kernelCounts{}
	for i := 0; i < extraSteps; i++ {
		v := countingGravity{inner: gravity.New(gravityParams), c: counts}
		if _, err := timedRun(sim, gravityLaunch(v), gravityKickDrift); err != nil {
			return err
		}
	}
	nodeCalls := float64(counts.nodeCalls.Load()) / extraSteps
	leafPairs := float64(counts.leafPairs.Load()) / extraSteps
	opens := float64(counts.opens.Load()) / extraSteps
	r.set("gravity.node_calls_per_iter", nodeCalls)
	r.set("gravity.leaf_pairs_per_iter", leafPairs)

	// Walk-only steps: engine cost without kernels. Positions are left
	// alone (no kick-drift), so every walk sees the same tree.
	var walkMs []float64
	before := readCounters(sim, reg)
	for i := 0; i < extraSteps; i++ {
		st, err := timedRun(sim, gravityLaunch(walkOnlyGravity{inner: gravity.New(gravityParams)}), func(*gravSim, int) {})
		if err != nil {
			return err
		}
		walkMs = append(walkMs, ms(st.post.Sub(st.trav)))
	}
	var walk simCounters
	walk.addDelta(before, readCounters(sim, reg))
	r.set("traverse.walk_only_ms", median(walkMs))
	r.set("traverse.ns_per_visit", ratio(walk.pumpNs(), float64(walk.n[cVisits])))

	openNs, nodeNs, leafNs := probeGravityKernels(sim, o.seed)
	r.set("gravity.open_ns", openNs)
	r.set("gravity.node_ns", nodeNs)
	r.set("gravity.leaf_ns_per_pair", leafNs)
	kernelNs := opens*openNs + nodeCalls*nodeNs + leafPairs*leafNs
	r.set("app.kernel_share", ratio(kernelNs, l.counters.pumpNs()/float64(l.steps())))

	probeBuildPipeline(r, sim.Particles(), gravityConfig(nil), gravity.Accumulator{})
	probeCodec(r, sim.World().Subtrees[0].Root, 3, gravity.Codec{}, o.seed)
	probeRoundTrip(r)
	return nil
}

// probeGravityKernels times Open, Node and Leaf (per particle pair) over
// seeded (node, bucket) pairs of the built tree, on copies of the buckets
// so the simulation's accelerations are untouched.
func probeGravityKernels(sim *gravSim, seed int64) (openNs, nodeNs, leafNsPerPair float64) {
	internal, leaves := treeNodes(sim)
	var buckets []*traverse.Bucket
	sim.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
		cp := *b
		cp.Particles = particle.Clone(b.Particles)
		buckets = append(buckets, &cp)
	})
	if len(internal) == 0 || len(leaves) == 0 || len(buckets) == 0 {
		return 0, 0, 0
	}
	sample := blockPairs(rand.New(rand.NewSource(seed)), len(internal), len(leaves), len(buckets))
	v := gravity.New(gravityParams)
	opened := 0
	start := time.Now()
	for _, p := range sample {
		if v.Open(internal[p.node], buckets[p.bucket]) {
			opened++
		}
	}
	openNs = float64(time.Since(start).Nanoseconds()) / probePairs
	probeSink.Add(int64(opened))

	start = time.Now()
	for _, p := range sample {
		v.Node(internal[p.node], buckets[p.bucket])
	}
	nodeNs = float64(time.Since(start).Nanoseconds()) / probePairs

	var npairs int
	start = time.Now()
	for _, p := range sample {
		v.Leaf(leaves[p.leaf], buckets[p.bucket])
		npairs += len(leaves[p.leaf].Particles) * len(buckets[p.bucket].Particles)
	}
	leafNsPerPair = ratio(float64(time.Since(start).Nanoseconds()), float64(npairs))
	return openNs, nodeNs, leafNsPerPair
}

// probeSink keeps probe results observable so the compiler cannot drop
// the timed calls.
var probeSink atomic.Int64
