package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
	"paratreet/internal/vec"
)

// RunIncremental is the multi-timestep incremental-build walkthrough
// (beyond the paper): a Config.Incremental simulation and a from-scratch
// one are driven through the same ~1%-movers kNN workload. Per step it
// reports both build times, what the incremental patch reused (movers,
// dirty vs reused leaves, patched subtrees, surviving cache entries),
// and the per-phase load imbalance (max/mean of per-proc time) of the
// incremental run's build and traversal phases. The kNN answers are
// asserted bit-identical between the two arms every step, so the
// speedup column is earned by skipped work, not changed answers.
func RunIncremental(opts Options) (*Result, error) {
	start := time.Now()
	w := opts.largest()
	procs, wpp := opts.procsFor(w)
	steps := opts.Iters + 1 // step 0 is the mandatory scratch build
	movers := opts.N / 100

	mk := func(incremental bool) (*paratreet.Simulation[knn.Data], error) {
		// No simulated link latency: this walkthrough compares the CPU
		// work of the two build paths, and injected delivery delay would
		// swamp the patch savings with identical sleep time on both arms.
		cfg := octree(procs, wpp)
		cfg.BuildWorkers, cfg.Incremental = wpp, incremental
		return newSim(opts, cfg, knn.Accumulator{}, knn.Codec{}, anchoredCloud(opts.N, opts.Seed))
	}
	inc, err := mk(true)
	if err != nil {
		return nil, err
	}
	defer inc.Close()
	scr, err := mk(false)
	if err != nil {
		return nil, err
	}
	defer scr.Close()

	radii := func(s *paratreet.Simulation[knn.Data]) map[int64]float64 {
		out := make(map[int64]float64, opts.N)
		s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
			st := b.State.(*knn.State)
			for i := range b.Particles {
				out[b.Particles[i].ID] = st.Radius(i)
			}
		})
		return out
	}
	// SPH density's kNN traversal without its density pass, which would
	// rewrite every particle and so dirty every leaf: the walkthrough
	// moves nothing but the movers' positions.
	driver := paratreet.DriverFuncs[knn.Data]{TraversalFn: sph.Driver(knnParams).Traversal}
	res := &Result{
		Title: fmt.Sprintf("incremental vs scratch rebuild, %d particles, %d%% movers/step, %d procs x %d workers",
			opts.N, 100*movers/opts.N, procs, wpp),
		XLabel: "step",
		Series: []string{"scratch-ms", "inc-ms", "movers", "sort-moved", "dirty-lv", "reused-lv", "cache-kept", "imb-build", "imb-trav"},
	}
	var scratchTotal, incTotal float64
	for step := 0; step < steps; step++ {
		if step > 0 {
			driftCloud(inc.Particles(), opts.Seed, step, movers)
			driftCloud(scr.Particles(), opts.Seed, step, movers)
		}
		before := inc.Machine().PhasePerProc()
		sbefore := scr.Machine().PhasePerProc()
		if err := inc.Run(1, driver); err != nil {
			return nil, err
		}
		after := inc.Machine().PhasePerProc()
		if err := scr.Run(1, driver); err != nil {
			return nil, err
		}
		safter := scr.Machine().PhasePerProc()
		ri, rs := radii(inc), radii(scr)
		for id, r := range ri {
			if rs[id] != r {
				return nil, fmt.Errorf("step %d: incremental kNN radius diverged from scratch at particle %d", step, id)
			}
		}
		st := inc.BuildStats()
		wantMode := "incremental"
		if step == 0 {
			wantMode = "scratch"
		}
		if st.Mode != wantMode {
			return nil, fmt.Errorf("step %d: incremental arm took mode %q (fallback %q), want %q",
				step, st.Mode, st.FallbackReason, wantMode)
		}
		// Build cost per step is the summed per-task build-phase time
		// (tree build + top share + leaf share), not wall clock: on an
		// oversubscribed host the phase timers are far less noisy, since
		// they measure the work actually executed rather than scheduling.
		build := []paratreet.Phase{paratreet.PhaseTreeBuild, paratreet.PhaseTopShare, paratreet.PhaseLeafShare}
		scratchMs, _ := phaseCost(sbefore, safter, build...)
		incMs, imbBuild := phaseCost(before, after, build...)
		_, imbTrav := phaseCost(before, after, paratreet.PhaseLocalTraversal, paratreet.PhaseResume)
		if step > 0 {
			scratchTotal += scratchMs
			incTotal += incMs
		}
		res.Rows = append(res.Rows, Row{X: step, Values: map[string]float64{
			"scratch-ms": scratchMs,
			"inc-ms":     incMs,
			"movers":     float64(st.Movers),
			"sort-moved": float64(st.SortMoved),
			"dirty-lv":   float64(st.DirtyLeaves),
			"reused-lv":  float64(st.ReusedLeaves),
			"cache-kept": float64(st.CacheKept),
			"imb-build":  imbBuild,
			"imb-trav":   imbTrav,
		}})
	}
	opts.Metrics.collect(fmt.Sprintf("incremental/inc/w%d", w), inc.MetricsSnapshot())
	opts.Metrics.collect(fmt.Sprintf("incremental/scratch/w%d", w), scr.MetricsSnapshot())
	if incTotal > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"steady-state build speedup (steps 1..%d): %.2fx (scratch %.1fms vs incremental %.1fms of summed build-phase time)",
			steps-1, scratchTotal/incTotal, scratchTotal, incTotal))
	}
	res.Notes = append(res.Notes,
		"imb-* is max/mean of per-proc phase time for that step (1.0 = perfectly balanced)",
		"kNN answers verified bit-identical between the incremental and scratch arms every step")
	res.Elapsed = time.Since(start)
	return res, nil
}

// phaseCost sums the given phases' time deltas between two PhasePerProc
// readings across all processes, in milliseconds, and reports their
// imbalance: max/mean of the per-process deltas (1 when no time was
// recorded).
func phaseCost(before, after [][paratreet.NumPhases]time.Duration, phases ...paratreet.Phase) (ms, imbalance float64) {
	var total, most time.Duration
	for r := range after {
		var d time.Duration
		for _, ph := range phases {
			d += after[r][ph]
			if r < len(before) {
				d -= before[r][ph]
			}
		}
		total += d
		most = max(most, d)
	}
	if total == 0 {
		return 0, 1
	}
	return float64(total.Microseconds()) / 1000, float64(most) / (float64(total) / float64(len(after)))
}

// anchoredCloud is the incremental workload: a clustered cloud clamped
// strictly inside 8 corner-anchor particles, so per-step drift never
// changes the global bounding box (which would force a scratch rebuild).
func anchoredCloud(n int, seed int64) []particle.Particle {
	ps := particle.NewClustered(n-8, seed, vec.UnitBox(), 8)
	for i := range ps {
		ps[i].Pos = vec.V(anchorClamp(ps[i].Pos.X), anchorClamp(ps[i].Pos.Y), anchorClamp(ps[i].Pos.Z))
	}
	id := int64(len(ps))
	for cx := 0; cx <= 1; cx++ {
		for cy := 0; cy <= 1; cy++ {
			for cz := 0; cz <= 1; cz++ {
				ps = append(ps, particle.Particle{ID: id, Pos: vec.V(float64(cx), float64(cy), float64(cz)), Mass: 1e-12})
				id++
			}
		}
	}
	return ps
}

// anchorClamp keeps a coordinate strictly inside the anchors' cube.
func anchorClamp(x float64) float64 { return min(max(x, 0.01), 0.99) }

// driftCloud nudges `movers` interior particles, selected and displaced
// by particle ID so the same mutation applies to both arms even though
// their array orders diverge across gathers.
func driftCloud(ps []particle.Particle, seed int64, step, movers int) {
	idx := make(map[int64]int, len(ps))
	for i := range ps {
		idx[ps[i].ID] = i
	}
	interior := len(ps) - 8
	rng := rand.New(rand.NewSource(seed ^ int64(step)*0x9e3779b9))
	for m := 0; m < movers; m++ {
		i := idx[int64(rng.Intn(interior))]
		ps[i].Pos = vec.V(
			anchorClamp(ps[i].Pos.X+(rng.Float64()-0.5)*0.02),
			anchorClamp(ps[i].Pos.Y+(rng.Float64()-0.5)*0.02),
			anchorClamp(ps[i].Pos.Z+(rng.Float64()-0.5)*0.02),
		)
	}
}
