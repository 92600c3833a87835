package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/benchfmt"
	"paratreet/internal/experiments"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/sfc"
	"paratreet/internal/sph"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// The bench subcommand measures the repository's perf-trajectory
// benchmark set with testing.Benchmark and emits a benchfmt snapshot:
//
//	paratreet-bench bench -bench-out BENCH_head.json
//	paratreet-bench bench -bench-compare BENCH_baseline.json
//
// With -bench-compare the process exits nonzero if any benchmark
// regressed beyond -bench-tolerance against the baseline; scripts/ci.sh
// runs exactly that as its bench-gate stage.
var (
	benchOut       = flag.String("bench-out", "", "bench: write the benchfmt snapshot to this file")
	benchCompare   = flag.String("bench-compare", "", "bench: compare against this baseline snapshot and fail on regression")
	benchTolerance = flag.Float64("bench-tolerance", 0.15, "bench: fractional ns/op and allocs/op regression tolerance")
)

// benchResult pairs a testing measurement with the phase split pulled
// from the simulation's metrics layer (zero for non-simulation benches).
type benchResult struct {
	r          testing.BenchmarkResult
	buildNs    float64
	traverseNs float64
	p50Ns      float64
	p99Ns      float64
}

func (b benchResult) toResult(name string) benchfmt.Result {
	return benchfmt.Result{
		Name:            name,
		N:               b.r.N,
		NsPerOp:         float64(b.r.T.Nanoseconds()) / float64(b.r.N),
		AllocsPerOp:     b.r.AllocsPerOp(),
		BytesPerOp:      b.r.AllocedBytesPerOp(),
		BuildNsPerOp:    b.buildNs,
		TraverseNsPerOp: b.traverseNs,
		P50Ns:           b.p50Ns,
		P99Ns:           b.p99Ns,
	}
}

// runBenchSuite executes the benchmark set and handles snapshot output
// and the baseline comparison. quick shrinks every workload to smoke
// scale (and stamps the snapshot's workload name accordingly, since
// ns/op baselines are only comparable at like scale). The whole suite is
// a timing harness — clock reads and formatting are its job, so it is
// marked cold to stop any future hotpath propagation into it.
//
//paratreet:coldpath
func runBenchSuite(w io.Writer, seed int64, quick bool) error {
	nBuild, nSim := 100000, 20000
	if quick {
		nBuild, nSim = 20000, 5000
	}

	type namedBench struct {
		name string
		run  func() (benchResult, error)
	}
	parWorkers := 4
	benches := []namedBench{
		{"treebuild/oct/serial", func() (benchResult, error) { return benchTreeBuild(nBuild, seed, 1), nil }},
		{fmt.Sprintf("treebuild/oct/w=%d", parWorkers), func() (benchResult, error) { return benchTreeBuild(nBuild, seed, parWorkers), nil }},
		{"radixsort", func() (benchResult, error) { return benchRadixSort(nBuild, seed), nil }},
		{"incbuild/scratch", func() (benchResult, error) { return benchIncBuild(nBuild, seed, false) }},
		{"incbuild/inc", func() (benchResult, error) { return benchIncBuild(nBuild, seed, true) }},
		{"gravity/iter", func() (benchResult, error) { return benchGravityIter(nSim, seed) }},
		{"knn/iter", func() (benchResult, error) { return benchKNNIter(nSim, seed) }},
		{"serve/query", func() (benchResult, error) { return benchServeQuery(nSim, seed) }},
	}

	workload := "bench-gate"
	if quick {
		workload = "bench-gate-quick"
	}
	// Load the baseline before measuring anything: an unreadable or
	// corrupt baseline should fail in milliseconds, not after the suite.
	var base *benchfmt.Snapshot
	if *benchCompare != "" {
		f, err := os.Open(*benchCompare)
		if err != nil {
			return err
		}
		base, err = benchfmt.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	snap := &benchfmt.Snapshot{
		GitSHA:   gitSHA(),
		Workload: workload,
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
	}
	fmt.Fprintf(w, "perf snapshot: workload=%s sha=%s cpus=%d\n", workload, snap.GitSHA, snap.NumCPU)
	for _, nb := range benches {
		// Repeat each measurement and keep the fastest: min ns/op is the
		// standard low-noise estimator (interference only ever adds time),
		// which keeps the ±15% gate meaningful on a shared machine.
		const reps = 5
		var best benchfmt.Result
		for rep := 0; rep < reps; rep++ {
			br, err := nb.run()
			if err != nil {
				return fmt.Errorf("bench %s: %w", nb.name, err)
			}
			res := br.toResult(nb.name)
			if rep == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		res := best
		snap.Results = append(snap.Results, res)
		fmt.Fprintf(w, "  %-24s %12.0f ns/op %8d allocs/op", res.Name, res.NsPerOp, res.AllocsPerOp)
		if res.BuildNsPerOp > 0 || res.TraverseNsPerOp > 0 {
			fmt.Fprintf(w, "   build %.0f ns/op, traverse %.0f ns/op", res.BuildNsPerOp, res.TraverseNsPerOp)
		}
		if res.P50Ns > 0 || res.P99Ns > 0 {
			fmt.Fprintf(w, "   request p50 %.0f ns, p99 %.0f ns", res.P50Ns, res.P99Ns)
		}
		fmt.Fprintln(w)
	}

	if *benchOut != "" {
		f, err := os.Create(*benchOut)
		if err != nil {
			return err
		}
		if err := benchfmt.Write(f, snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *benchOut)
	}

	if base != nil {
		if base.Workload != snap.Workload {
			fmt.Fprintf(w, "warning: baseline workload %q differs from current %q; ns/op comparison is not meaningful\n",
				base.Workload, snap.Workload)
		}
		if base.NumCPU != snap.NumCPU {
			fmt.Fprintf(w, "warning: baseline taken on %d CPUs, this host has %d; ns/op is reported, not gated\n", base.NumCPU, snap.NumCPU)
		}
		failed := 0
		for _, r := range benchfmt.Compare(base, snap, *benchTolerance) {
			fmt.Fprintln(w, "bench-gate:", r)
			if !r.Advisory {
				failed++
			}
		}
		if failed == 0 {
			fmt.Fprintf(w, "bench-gate: no regressions beyond %.0f%% vs %s\n", *benchTolerance*100, *benchCompare)
			return nil
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% vs %s", failed, *benchTolerance*100, *benchCompare)
	}
	return nil
}

// benchTreeBuild measures the full standalone build pipeline — key
// assignment, sort, node construction, Data accumulation — serial
// (workers<=1) or via the Cornerstone-style parallel path.
//
//paratreet:coldpath
func benchTreeBuild(n int, seed int64, workers int) benchResult {
	box := vec.NewBox(vec.V(0, 0, 0), vec.V(1, 1, 1))
	pristine := particle.NewClustered(n, seed, box, 8)
	universe := particle.BoundingBox(pristine).Pad(1e-9).Cubed()
	scratch := make([]particle.Particle, n)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(scratch, pristine)
			b.StartTimer()
			cfg := tree.BuildConfig{Type: tree.Octree, BucketSize: 16, Workers: workers, MortonOrdered: workers > 1}
			tree.AssignKeysParallel(scratch, universe, sfc.MortonKey, workers)
			root := tree.Build[gravity.CentroidData](scratch, universe, tree.RootKey, 0, cfg)
			tree.AccumulateParallel(root, gravity.Accumulator{}, workers)
		}
	})
	return benchResult{r: r}
}

// benchRadixSort measures the particle sort alone on a cloud in generator
// (random) order, where every particle is displaced and the radix passes
// do all the work; a fresh keyed copy is made outside the timer.
//
//paratreet:coldpath
func benchRadixSort(n int, seed int64) benchResult {
	box := vec.NewBox(vec.V(0, 0, 0), vec.V(1, 1, 1))
	pristine := particle.NewUniform(n, seed, box)
	universe := particle.BoundingBox(pristine).Pad(1e-9).Cubed()
	for i := range pristine {
		pristine[i].Key = sfc.MortonKey(pristine[i].Pos, universe)
	}
	scratch := make([]particle.Particle, n)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(scratch, pristine)
			b.StartTimer()
			particle.RadixSortByKey(scratch, runtime.GOMAXPROCS(0))
		}
	})
	return benchResult{r: r}
}

// benchIncParticles builds the incremental-build workload: a clustered
// cloud clamped inside 8 corner-anchor particles, so the tiny per-step
// drift below never changes the global bounding box (a box change would
// force the incremental path back to scratch).
//
//paratreet:coldpath
func benchIncParticles(n int, seed int64) []particle.Particle {
	ps := particle.NewClustered(n-8, seed, vec.UnitBox(), 8)
	for i := range ps {
		ps[i].Pos = vec.V(driftClamp(ps[i].Pos.X), driftClamp(ps[i].Pos.Y), driftClamp(ps[i].Pos.Z))
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

// driftClamp keeps a drifted coordinate strictly inside the corner
// anchors.
func driftClamp(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 0.99 {
		return 0.99
	}
	return x
}

// benchIncBuild measures one timestep of the rebuild loop on a
// ~1%-movers workload: nudge 1% of the interior particles, then
// BuildIteration. With incremental=false every op is a from-scratch
// build; with incremental=true every op after the warmup patches the
// resident trees along dirty paths. The incbuild/scratch :
// incbuild/inc ns/op ratio is the incremental speedup the perf
// trajectory tracks.
//
//paratreet:coldpath
func benchIncBuild(n int, seed int64, incremental bool) (benchResult, error) {
	movers := n / 100
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16, FetchDepth: 3,
		Incremental: incremental,
	}, gravity.Accumulator{}, gravity.Codec{}, benchIncParticles(n, seed))
	if err != nil {
		return benchResult{}, err
	}
	defer sim.Close()
	if err := sim.BuildOnly(); err != nil { // warmup: the first build is always scratch
		return benchResult{}, err
	}
	var out benchResult
	var benchErr error
	interior := n - 8
	step := int64(0)
	out.r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ps := sim.Particles()
			rng := rand.New(rand.NewSource(seed + step))
			step++
			for m := 0; m < movers; m++ {
				// ps is in tree order, so the corner anchors (IDs from
				// interior up) sit anywhere in it: moving one would change
				// the universe and force a scratch build.
				j := rng.Intn(len(ps))
				if ps[j].ID >= int64(interior) {
					continue
				}
				ps[j].Pos.X = driftClamp(ps[j].Pos.X + (rng.Float64()-0.5)*0.02)
				ps[j].Pos.Y = driftClamp(ps[j].Pos.Y + (rng.Float64()-0.5)*0.02)
				ps[j].Pos.Z = driftClamp(ps[j].Pos.Z + (rng.Float64()-0.5)*0.02)
			}
			b.StartTimer()
			if err := sim.BuildOnly(); err != nil {
				benchErr = err
				b.SkipNow()
			}
		}
	})
	if benchErr != nil {
		return out, benchErr
	}
	if incremental {
		if st := sim.BuildStats(); st.Mode != "incremental" {
			return out, fmt.Errorf("incbuild/inc fell back to %q (%s); the measurement is meaningless", st.Mode, st.FallbackReason)
		}
	}
	return out, nil
}

// benchGravityIter measures one Barnes-Hut iteration end to end on the
// simulated machine and splits out per-op build and traverse time from
// the runtime's phase timers.
func benchGravityIter(n int, seed int64) (benchResult, error) {
	box := vec.NewBox(vec.V(0, 0, 0), vec.V(1, 1, 1))
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	}
	return benchSim(func() (*paratreet.Simulation[gravity.CentroidData], error) {
		ps := particle.NewClustered(n, seed, box, 8)
		return paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
			Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
			BucketSize: 16, FetchDepth: 3,
			Latency: 20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
		}, gravity.Accumulator{}, gravity.Codec{}, ps)
	}, driver)
}

// benchKNNIter measures one kNN (SPH density) up-and-down iteration.
func benchKNNIter(n int, seed int64) (benchResult, error) {
	const k = 24
	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), k)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: k, ExcludeSelf: true}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			spar := sph.Params{K: k, Gamma: 5.0 / 3.0, U: 1}
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					sph.DensityFromNeighbors(&b.Particles[i], st.Neighbors(i))
					sph.Pressure(&b.Particles[i], spar)
				}
			})
		},
	}
	return benchSim(func() (*paratreet.Simulation[knn.Data], error) {
		ps := particle.NewCosmological(n, seed, vec.UnitBox())
		return paratreet.NewSimulation[knn.Data](paratreet.Config{
			Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
			Latency: 20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
		}, knn.Accumulator{}, knn.Codec{}, ps)
	}, driver)
}

// benchServeQuery measures the serving path: a reproducible mixed query
// set answered through the wave batcher against a resident tree, with
// concurrent submitters the way the HTTP server drives the engine. Each
// op is one full query-set replay; the per-request p50/p99 come from the
// serve.request_ns streaming sketch, giving the perf trajectory a tail
// latency signal on top of mean throughput.
//
//paratreet:coldpath
func benchServeQuery(n int, seed int64) (benchResult, error) {
	const nq, conc = 256, 8
	box := vec.UnitBox()
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	cfg := paratreet.Config{
		Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		CachePolicy: paratreet.CacheWaitFree, FetchDepth: 3,
		Metrics: reg,
	}
	eng, err := serve.NewEngine(cfg, particle.NewClustered(n, seed, box, 8))
	if err != nil {
		return benchResult{}, err
	}
	defer eng.Close()
	qs := experiments.NewQuerySet(nq, seed+1, box, 16, 0.05)
	bcfg := serve.BatchConfig{MaxBatch: 32, Registry: reg}
	var out benchResult
	var benchErr error
	out.r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunBatched(eng, bcfg, qs, conc); err != nil {
				benchErr = err
				b.SkipNow()
			}
		}
	})
	if snap := reg.Snapshot(); snap != nil {
		if sk, ok := snap.Sketches[metrics.HServeRequest]; ok {
			out.p50Ns, out.p99Ns = float64(sk.P50), float64(sk.P99)
		}
	}
	return out, benchErr
}

// benchSim benchmarks whole simulation iterations: per testing round it
// constructs a fresh simulation off the clock, warms up one iteration,
// then times b.N iterations, attributing build and traverse phase time
// from the machine's phase timers.
func benchSim[D any](newSim func() (*paratreet.Simulation[D], error), driver paratreet.Driver[D]) (benchResult, error) {
	var out benchResult
	var benchErr error
	out.r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		sim, err := newSim()
		if err != nil {
			benchErr = err
			b.SkipNow()
		}
		defer sim.Close()
		if err := sim.Run(1, driver); err != nil { // warmup
			benchErr = err
			b.SkipNow()
		}
		sim.ResetStats()
		before := sim.PhaseTotals()
		b.StartTimer()
		if err := sim.Run(b.N, driver); err != nil {
			benchErr = err
			b.SkipNow()
		}
		b.StopTimer()
		after := sim.PhaseTotals()
		build := (after[paratreet.PhaseTreeBuild] - before[paratreet.PhaseTreeBuild]) +
			(after[paratreet.PhaseTopShare] - before[paratreet.PhaseTopShare]) +
			(after[paratreet.PhaseLeafShare] - before[paratreet.PhaseLeafShare])
		traverse := (after[paratreet.PhaseLocalTraversal] - before[paratreet.PhaseLocalTraversal]) +
			(after[paratreet.PhaseResume] - before[paratreet.PhaseResume])
		out.buildNs = float64(build.Nanoseconds()) / float64(b.N)
		out.traverseNs = float64(traverse.Nanoseconds()) / float64(b.N)
	})
	return out, benchErr
}

// gitSHA returns the current commit, or "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
