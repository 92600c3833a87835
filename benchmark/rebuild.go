package main

import (
	"math/rand"
	"time"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

// rebuild_drift: BuildOnly per step, no traversal. 1% of an anchored
// clustered cloud random-walks per step and the incremental build patches
// the resident trees: keys, radix sort, decomposition, tree.PatchSubtree,
// top share, delta leaf share, cache.RefreshViews. Build does all the
// work here; traverse and the kernels none.

const (
	rebuildN        = 100000
	rebuildMovers   = 0.01 // share of particles that move per step
	rebuildDrift    = 0.01 // each mover random-walks up to this far per axis
	rebuildCheckGap = 50   // every 50th step is compared with a from-scratch twin
)

func rebuildConfig(reg *paratreet.MetricsRegistry, incremental bool) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16, FetchDepth: 3,
		Incremental: incremental,
		Metrics:     reg,
	}
}

// newRebuildSim constructs the simulation and times its first build, which
// is always a scratch build: the workload's set-up.
func newRebuildSim(ps []particle.Particle, reg *paratreet.MetricsRegistry) (*gravSim, time.Duration, error) {
	sim, err := paratreet.NewSimulation(rebuildConfig(reg, true), gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := sim.BuildOnly(); err != nil {
		sim.Close()
		return nil, 0, err
	}
	return sim, time.Since(start), nil
}

// twinMatches builds the simulation's current particles from scratch in a
// twin simulation and reports whether the patched world equals it bit for
// bit: the same subtrees with the same root Data, and the same particle
// census per partition.
func twinMatches(sim *gravSim) (bool, error) {
	twin, err := paratreet.NewSimulation(rebuildConfig(nil, false), gravity.Accumulator{}, gravity.Codec{}, particle.Clone(sim.Particles()))
	if err != nil {
		return false, err
	}
	defer twin.Close()
	if err := twin.BuildOnly(); err != nil {
		return false, err
	}
	a, b := sim.World(), twin.World()
	if len(a.Subtrees) != len(b.Subtrees) || len(a.Partitions) != len(b.Partitions) {
		return false, nil
	}
	for i := range a.Subtrees {
		sa, sb := a.Subtrees[i], b.Subtrees[i]
		if sa.Key != sb.Key || len(sa.Particles) != len(sb.Particles) || sa.Root.Data != sb.Root.Data {
			return false, nil
		}
	}
	for i := range a.Partitions {
		if a.Partitions[i].NumParticles() != b.Partitions[i].NumParticles() {
			return false, nil
		}
	}
	return true, nil
}

// patchCounts sums what BuildStats reports over a run's incremental
// builds (rebuild_drift's steps, serve_mixed's refreshes).
type patchCounts struct {
	reused, dirty, kept, dropped int
	fallbacks                    int // builds that fell back to a scratch build
}

func (c *patchCounts) add(bs paratreet.BuildStats) {
	if bs.Mode != "incremental" {
		c.fallbacks++
	}
	c.reused += bs.ReusedLeaves
	c.dirty += bs.DirtyLeaves
	c.kept += bs.CacheKept
	c.dropped += bs.CacheDropped
}

func (c *patchCounts) merge(o patchCounts) {
	c.reused, c.dirty, c.kept, c.dropped, c.fallbacks = c.reused+o.reused, c.dirty+o.dirty, c.kept+o.kept, c.dropped+o.dropped, c.fallbacks+o.fallbacks
}

// report fills the per-layer metrics derived from the counts.
func (c *patchCounts) report(r *result) {
	r.set("core.patch_reuse_share", ratio(float64(c.reused), float64(c.reused+c.dirty)))
	r.set("core.fallback_builds", float64(c.fallbacks))
	r.set("cache.kept_share", ratio(float64(c.kept), float64(c.kept+c.dropped)))
}

// rebuildStep drifts the particles and rebuilds. The step is drift + build:
// no traversal, post or gather, so those spans are empty and the build ends
// the step.
func rebuildStep(sim *gravSim, rng *rand.Rand) (stepTimes, error) {
	start := time.Now()
	drift(sim.Particles(), rng, int(rebuildMovers*float64(len(sim.Particles()))), rebuildDrift)
	drifted := time.Now()
	err := sim.BuildOnly()
	end := time.Now()
	return stepTimes{start: start, drifted: drifted, trav: end, post: end, postEnd: end, end: end}, err
}

// rebuildLoop drifts and rebuilds until the deadline. Every step is a
// timed step; every rebuildCheckGap-th is then compared with a twin,
// outside the timer. It returns the BuildStats sums and the number of twin
// checks.
func rebuildLoop(sim *gravSim, reg *paratreet.MetricsRegistry, l *stepLoop, seed int64, d time.Duration) (patchCounts, int, error) {
	rng := rand.New(rand.NewSource(seed))
	var pc patchCounts
	checks := 0
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		l.attempted++
		if err := timedStep(l, sim, reg, func() (stepTimes, error) { return rebuildStep(sim, rng) }); err != nil {
			return pc, checks, err
		}
		fallbacks := pc.fallbacks
		pc.add(sim.BuildStats())
		failed := pc.fallbacks > fallbacks
		if i%rebuildCheckGap == rebuildCheckGap-1 {
			ok, err := twinMatches(sim)
			if err != nil {
				return pc, checks, err
			}
			checks++
			failed = failed || !ok
		}
		if failed {
			l.failed++
		}
	}
	return pc, checks, nil
}

func runRebuild(o options, r *result) error {
	n := scaled(rebuildN, o.quick)
	prepStart := time.Now()
	base := anchoredClustered(n, o.seed, 0)
	prepare := time.Since(prepStart)
	if o.trace {
		return traceRebuild(o, r, base, prepare)
	}
	setupS, sim, err := measureSetup(base, func(ps []particle.Particle) (*gravSim, error) {
		sim, _, err := newRebuildSim(ps, nil)
		return sim, err
	})
	if err != nil {
		return err
	}
	defer sim.Close()
	l := newStepLoop(n, nil)
	pc, checks, err := rebuildLoop(sim, nil, l, o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	r.count("steps", l.attempted, l.failed)
	r.notef("%d twin checks, %d fallback builds", checks, pc.fallbacks)
	tail := rand.New(rand.NewSource(o.seed + 1))
	return l.endToEnd(r, setupS, func() error {
		_, err := rebuildStep(sim, tail)
		return err
	})
}

func traceRebuild(o options, r *result, base []particle.Particle, prepare time.Duration) error {
	n := len(base)
	budget := time.Duration(o.seconds * float64(time.Second))

	plainSim, _, err := newRebuildSim(particle.Clone(base), nil)
	if err != nil {
		return err
	}
	plain := newStepLoop(n, nil)
	_, _, err = rebuildLoop(plainSim, nil, plain, o.seed, budget*3/10)
	plainSim.Close()
	if err != nil {
		return err
	}

	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	sim, firstBuild, err := newRebuildSim(particle.Clone(base), reg)
	if err != nil {
		return err
	}
	defer sim.Close()
	r.set("core.scratch_build_ms", ms(firstBuild))
	reg.Reset()
	r.spans = newSpanLog()
	l := newStepLoop(n, r.spans)
	gc := readGC()
	pc, _, err := rebuildLoop(sim, reg, l, o.seed, budget*5/10)
	if err != nil {
		return err
	}
	if err := traceCommon(r, sim, l, plain, gc, prepare); err != nil {
		return err
	}
	pc.report(r)

	probeBuildPipeline(r, sim.Particles(), rebuildConfig(nil, true), gravity.Accumulator{})
	probeCodec(r, sim.World().Subtrees[0].Root, 3, gravity.Codec{}, o.seed)
	return nil
}
