// Benchmarks reproducing the paper's evaluation, one per table and figure
// (plus ablations and microbenchmarks). Figure-level benchmarks time one
// simulation iteration of the exact configuration the figure compares;
// run with:
//
//	go test -bench=. -benchmem
//
// and see cmd/paratreet-bench for the full swept experiments.
package paratreet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"paratreet"
	"paratreet/internal/baseline/changa"
	"paratreet/internal/baseline/gadget"
	"paratreet/internal/cachesim"
	"paratreet/internal/collision"
	"paratreet/internal/decomp"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/psel"
	"paratreet/internal/sfc"
	"paratreet/internal/sph"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/twopoint"
	"paratreet/internal/vec"
)

const (
	benchN      = 20000
	benchProcs  = 2
	benchWPP    = 2
	benchBucket = 16
)

func benchBox() paratreet.Box { return paratreet.Box{Max: paratreet.V(1, 1, 1)} }

func gravityBenchDriver(par gravity.Params) paratreet.Driver[gravity.CentroidData] {
	return paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	}
}

func iterateGravity(b *testing.B, cfg paratreet.Config, ps []particle.Particle, driver paratreet.Driver[gravity.CentroidData]) {
	b.Helper()
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(1, driver); err != nil { // warmup
		b.Fatal(err)
	}
	sim.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sim.Stats()
	b.ReportMetric(float64(st.NodeRequests)/float64(b.N), "requests/iter")
	b.ReportMetric(float64(st.BytesSent)/1e6/float64(b.N), "MB/iter")
}

// BenchmarkFig3CacheModels times a Barnes-Hut iteration on clustered
// particles under each software-cache model (Fig 3).
func BenchmarkFig3CacheModels(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	for _, policy := range []paratreet.CachePolicy{
		paratreet.CacheWaitFree, paratreet.CachePerThread,
		paratreet.CacheXWrite, paratreet.CacheSingleWorker,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			ps := particle.NewClustered(benchN, 42, benchBox(), 8)
			iterateGravity(b, paratreet.Config{
				Procs: benchProcs, WorkersPerProc: benchWPP,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: benchBucket, CachePolicy: policy,
			}, ps, gravityBenchDriver(par))
		})
	}
}

// BenchmarkFig9UtilizationProfile times the profiled gravity iteration
// whose phase breakdown Fig 9 visualizes.
func BenchmarkFig9UtilizationProfile(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	ps := particle.NewUniform(benchN, 42, benchBox())
	iterateGravity(b, paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}, ps, gravityBenchDriver(par))
}

// BenchmarkFig10GravityComparison times ParaTreeT vs BasicTrav vs the
// ChaNGa profile on the uniform volume (Fig 10).
func BenchmarkFig10GravityComparison(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	base := paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}
	b.Run("ParaTreeT", func(b *testing.B) {
		iterateGravity(b, base, particle.NewUniform(benchN, 42, benchBox()), gravityBenchDriver(par))
	})
	b.Run("BasicTrav", func(b *testing.B) {
		cfg := base
		cfg.Style = paratreet.StylePerBucket
		iterateGravity(b, cfg, particle.NewUniform(benchN, 42, benchBox()), gravityBenchDriver(par))
	})
	b.Run("ChaNGa", func(b *testing.B) {
		iterateGravity(b, changa.Config(benchProcs, benchWPP, benchBucket),
			particle.NewUniform(benchN, 42, benchBox()), changa.Driver(par))
	})
}

// BenchmarkFig11SPH times the SPH density iteration: ParaTreeT's kNN
// algorithm vs the Gadget-2-style ball iteration (Fig 11).
func BenchmarkFig11SPH(b *testing.B) {
	par := sph.Params{K: 24, Gamma: 5.0 / 3.0, U: 1}
	iterate := func(b *testing.B, cfg paratreet.Config, driver paratreet.Driver[knn.Data]) {
		ps := particle.NewCosmological(benchN, 42, benchBox())
		sim, err := paratreet.NewSimulation[knn.Data](cfg, knn.Accumulator{}, knn.Codec{}, ps)
		if err != nil {
			b.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.Run(1, driver); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ParaTreeT", func(b *testing.B) {
		driver := paratreet.DriverFuncs[knn.Data]{
			TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				for _, p := range s.Partitions() {
					knn.Attach(p.Buckets(), par.K)
				}
				paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
					return knn.Visitor{K: par.K, ExcludeSelf: true}
				})
			},
			PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], bk *paratreet.Bucket) {
					st := bk.State.(*knn.State)
					for i := range bk.Particles {
						sph.DensityFromNeighbors(&bk.Particles[i], st.Neighbors(i))
						sph.Pressure(&bk.Particles[i], par)
					}
				})
			},
		}
		iterate(b, paratreet.Config{
			Procs: benchProcs, WorkersPerProc: benchWPP,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
		}, driver)
	})
	b.Run("Gadget2", func(b *testing.B) {
		iterate(b, gadget.Config(benchProcs*benchWPP, benchBucket), gadget.Driver(par, 2, 30, 0.05))
	})
}

// BenchmarkFig12DiskStep times one planetesimal-disk step (gravity +
// collision detection + integration), the workload behind Fig 12.
func BenchmarkFig12DiskStep(b *testing.B) {
	dp := particle.DefaultDiskParams()
	dp.BodyRadius *= 4000
	ps := particle.NewDisk(benchN, 42, dp)
	sim, err := paratreet.NewSimulation[collision.DiskData](paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeLongestDim, Decomp: paratreet.DecompORB, BucketSize: 32,
	}, collision.DiskAccumulator{}, collision.DiskCodec{}, ps)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	rec := collision.NewRecorder()
	gp := gravity.Params{G: 1, Theta: 0.7, Soft: 1e-5}
	dt := 0.02
	driver := paratreet.DriverFuncs[collision.DiskData]{
		TraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], bk *paratreet.Bucket) {
				particle.ResetAcc(bk.Particles)
			})
			for _, p := range s.Partitions() {
				collision.Attach(p.Buckets())
			}
			paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) gravity.Visitor[collision.DiskData] {
				return collision.DiskGravityVisitor(gp)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) collision.Visitor[collision.DiskData] {
				return collision.DiskCollisionVisitor(dt, dp.StarMass, rec, 2)
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], bk *paratreet.Bucket) {
				gravity.KickDrift(bk.Particles, dt)
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rec.Count()), "collisions")
}

// BenchmarkFig13DiskTreeTypes times the disk step under the three
// tree/decomposition configurations Fig 13 compares.
func BenchmarkFig13DiskTreeTypes(b *testing.B) {
	dp := particle.DefaultDiskParams()
	dp.BodyRadius *= 2000
	gp := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-5}
	dt := 0.01
	variants := []struct {
		name  string
		tree  paratreet.TreeType
		dec   paratreet.DecompType
		style paratreet.TraversalStyle
		cache paratreet.CachePolicy
		merge bool
	}{
		{"LongestDim", paratreet.TreeLongestDim, paratreet.DecompORB, paratreet.StyleTransposed, paratreet.CacheWaitFree, false},
		{"ParaTreeT-Oct", paratreet.TreeOct, paratreet.DecompSFC, paratreet.StyleTransposed, paratreet.CacheWaitFree, false},
		{"ChaNGa-Oct", paratreet.TreeOct, paratreet.DecompSFC, paratreet.StylePerBucket, paratreet.CachePerThread, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			ps := particle.NewDisk(benchN, 42, dp)
			sim, err := paratreet.NewSimulation[collision.DiskData](paratreet.Config{
				Procs: benchProcs, WorkersPerProc: benchWPP,
				Tree: v.tree, Decomp: v.dec, BucketSize: 32,
				Style: v.style, CachePolicy: v.cache,
			}, collision.DiskAccumulator{}, collision.DiskCodec{}, ps)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			rec := collision.NewRecorder()
			driver := paratreet.DriverFuncs[collision.DiskData]{
				TraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
					if v.merge {
						changa.MergeBranchNodes(s, collision.DiskCodec{})
					}
					s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], bk *paratreet.Bucket) {
						particle.ResetAcc(bk.Particles)
					})
					for _, p := range s.Partitions() {
						collision.Attach(p.Buckets())
					}
					paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) gravity.Visitor[collision.DiskData] {
						return collision.DiskGravityVisitor(gp)
					})
					paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) collision.Visitor[collision.DiskData] {
						return collision.DiskCollisionVisitor(dt, dp.StarMass, rec, 2)
					})
				},
				PostTraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
					s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], bk *paratreet.Bucket) {
						gravity.KickDrift(bk.Particles, dt)
					})
				},
			}
			if err := sim.Run(1, driver); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(1, driver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2CacheSim times the trace-driven cache-hierarchy
// simulation behind Table II and reports the simulated L1 accesses.
func BenchmarkTable2CacheSim(b *testing.B) {
	for _, style := range []paratreet.TraversalStyle{paratreet.StyleTransposed, paratreet.StylePerBucket} {
		b.Run(style.String(), func(b *testing.B) {
			var last cachesim.TraceResult
			for i := 0; i < b.N; i++ {
				r, err := cachesim.TraceGravity(10000, 2, benchBucket, style, cachesim.SKX(), 0.7)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.L1.Loads), "L1loads")
			b.ReportMetric(100*last.L1.LoadMissRate(), "L1miss%")
		})
	}
}

// BenchmarkLBAblation times iterations with load balancing off vs on
// (§III-A reports ~26% improvement at scale on clustered inputs).
func BenchmarkLBAblation(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.5, Soft: 1e-4}
	for _, mode := range []paratreet.LBMode{paratreet.LBOff, paratreet.LBSFC, paratreet.LBSpatial} {
		b.Run(mode.String(), func(b *testing.B) {
			ps := particle.NewClustered(benchN, 42, benchBox(), 3)
			sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
				Procs: 4, WorkersPerProc: 1,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: benchBucket, Partitions: 64,
				LB: mode, LBPeriod: 1,
			}, gravity.Accumulator{}, gravity.Codec{}, ps)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			driver := gravityBenchDriver(par)
			if err := sim.Run(2, driver); err != nil { // warm up + trigger LB
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(1, driver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFetchDepthAblation sweeps the nodes-fetched-per-request knob.
func BenchmarkFetchDepthAblation(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	for _, depth := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ps := particle.NewUniform(benchN, 42, benchBox())
			iterateGravity(b, paratreet.Config{
				Procs: benchProcs, WorkersPerProc: benchWPP,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: benchBucket, FetchDepth: depth,
			}, ps, gravityBenchDriver(par))
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkTreeBuild measures raw tree construction per tree type.
func BenchmarkTreeBuild(b *testing.B) {
	for _, tt := range []tree.Type{tree.Octree, tree.KD, tree.LongestDim} {
		b.Run(tt.String(), func(b *testing.B) {
			box := vec.UnitBox()
			ps := particle.NewUniform(benchN, 42, box)
			tree.AssignKeys(ps, box, sfc.MortonKey)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := tree.Build[gravity.CentroidData](ps, box, tree.RootKey, 0,
					tree.BuildConfig{Type: tt, BucketSize: benchBucket})
				tree.Accumulate[gravity.CentroidData](root, gravity.Accumulator{})
			}
		})
	}
}

// BenchmarkTreeBuildParallel measures the full standalone build pipeline
// (key assignment, sort, octree construction, Data accumulation) at 100k
// particles across a worker sweep. Workers=1 is the serial baseline
// (geometric octant scan); workers>1 takes the Cornerstone-style path
// (parallel keys and radix passes + key-prefix search). Both sort through
// particle.Sorter.
func BenchmarkTreeBuildParallel(b *testing.B) {
	const n = 100000
	box := vec.UnitBox()
	pristine := particle.NewClustered(n, 42, box, 8)
	universe := particle.BoundingBox(pristine).Pad(1e-9).Cubed()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			scratch := make([]particle.Particle, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(scratch, pristine)
				b.StartTimer()
				tree.AssignKeysParallel(scratch, universe, sfc.MortonKey, workers)
				root := tree.Build[gravity.CentroidData](scratch, universe, tree.RootKey, 0,
					tree.BuildConfig{Type: tree.Octree, BucketSize: benchBucket,
						Workers: workers, MortonOrdered: workers > 1})
				tree.AccumulateParallel[gravity.CentroidData](root, gravity.Accumulator{}, workers)
			}
		})
	}
}

// BenchmarkSortByKey measures the particle sort alone at the build
// pipeline's scale, over the input orders builds meet: an array already in
// order (a refresh that re-submits a sorted array), 1% of the particles
// re-keyed where they stand (one timestep of drift), every key jittered in
// its low bits (everything moved a little), and random order (a first
// build). Reported per worker count; the ordered case must allocate
// nothing.
func BenchmarkSortByKey(b *testing.B) {
	const n = 100000
	box := vec.UnitBox()
	sorted := particle.NewUniform(n, 42, box)
	tree.AssignKeys(sorted, box, sfc.MortonKey)
	rng := rand.New(rand.NewSource(42))
	inputs := []struct {
		name  string
		build func() []particle.Particle
	}{
		{"ordered", func() []particle.Particle { return particle.Clone(sorted) }},
		{"displaced1pct", func() []particle.Particle {
			ps := particle.Clone(sorted)
			for m := 0; m < n/100; m++ {
				ps[rng.Intn(n)].Key = rng.Uint64() >> 1
			}
			return ps
		}},
		{"jittered", func() []particle.Particle {
			ps := particle.Clone(sorted)
			for i := range ps {
				ps[i].Key ^= uint64(rng.Int63n(1 << 48)) // neighbours are ~2^46 apart
			}
			return ps
		}},
		{"random", func() []particle.Particle {
			ps := particle.Clone(sorted)
			rng.Shuffle(n, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			return ps
		}},
	}
	for _, in := range inputs {
		pristine := in.build()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w=%d", in.name, workers), func(b *testing.B) {
				dst := make([]particle.Particle, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var s particle.Sorter
					s.Scan(pristine, n)
					s.SortInto(dst, pristine, workers)
				}
			})
		}
	}
}

// BenchmarkDecomposition measures splitter finding per decomposition type.
func BenchmarkDecomposition(b *testing.B) {
	box := vec.UnitBox()
	for _, dt := range []decomp.Type{decomp.SFCMorton, decomp.SFCHilbert, decomp.Oct, decomp.ORB} {
		b.Run(dt.String(), func(b *testing.B) {
			ps := particle.NewUniform(benchN, 42, box)
			tree.AssignKeys(ps, box, func(p vec.Vec3, bx vec.Box) uint64 { return sfc.Key(dt.Curve(), p, bx) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decomp.Assign(dt, ps, box, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSFCKeys measures key generation throughput per curve.
func BenchmarkSFCKeys(b *testing.B) {
	box := vec.UnitBox()
	ps := particle.NewUniform(benchN, 42, box)
	b.Run("morton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range ps {
				_ = sfc.MortonKey(ps[j].Pos, box)
			}
		}
	})
	b.Run("hilbert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range ps {
				_ = sfc.HilbertKey(ps[j].Pos, box)
			}
		}
	})
}

// BenchmarkSubtreeSerialization measures the fill wire format.
func BenchmarkSubtreeSerialization(b *testing.B) {
	box := vec.UnitBox()
	ps := particle.NewUniform(5000, 42, box)
	tree.AssignKeys(ps, box, sfc.MortonKey)
	root := tree.Build[gravity.CentroidData](ps, box, tree.RootKey, 0,
		tree.BuildConfig{Type: tree.Octree, BucketSize: benchBucket})
	tree.Accumulate[gravity.CentroidData](root, gravity.Accumulator{})
	blob := tree.SerializeSubtree(root, 3, gravity.Codec{})
	b.Run("serialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tree.SerializeSubtree(root, 3, gravity.Codec{})
		}
		b.SetBytes(int64(len(blob)))
	})
	b.Run("deserialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.DeserializeSubtree[gravity.CentroidData](blob, 3, gravity.Codec{}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(blob)))
	})
}

// BenchmarkWaiterList measures the lock-free pause/resume registry.
func BenchmarkWaiterList(b *testing.B) {
	b.Run("add-seal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w tree.WaiterList
			for j := 0; j < 8; j++ {
				w.Add(func() {})
			}
			for _, fn := range w.Seal() {
				fn()
			}
		}
	})
	b.Run("add-parallel", func(b *testing.B) {
		var w tree.WaiterList
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				w.Add(func() {})
			}
		})
	})
}

// BenchmarkQuickselect measures the median partition used by k-d builds
// and ORB decomposition.
func BenchmarkQuickselect(b *testing.B) {
	base := particle.NewUniform(benchN, 42, vec.UnitBox())
	ps := make([]particle.Particle, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ps, base)
		psel.SelectNth(ps, len(ps)/2, i%3)
	}
}

// BenchmarkKNNQuery measures the kNN visitor through the framework.
func BenchmarkKNNQuery(b *testing.B) {
	ps := particle.NewUniform(benchN, 42, benchBox())
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), 16)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: 16, ExcludeSelf: true}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualTreeGravity exercises the dual-tree engine with the cell()
// decision on a gravity-like visitor.
func BenchmarkDualTreeGravity(b *testing.B) {
	ps := particle.NewUniform(benchN, 42, benchBox())
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], bk *paratreet.Bucket) {
				particle.ResetAcc(bk.Particles)
			})
			paratreet.StartDual(s, 4, func(p *paratreet.Partition[gravity.CentroidData]) dualGravity {
				return dualGravity{par: gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
	}
}

// dualGravity adapts the gravity kernels to the dual-tree cell() protocol.
type dualGravity struct {
	par gravity.Params
}

func (d dualGravity) Cell(source *paratreet.Node[gravity.CentroidData], targetBox paratreet.Box) paratreet.CellAction {
	if source.Data.Mass == 0 {
		return paratreet.CellPrune
	}
	c := source.Data.Centroid()
	rsq := source.Box.FarDistSq(c) / (d.par.Theta * d.par.Theta)
	if !targetBox.IntersectsSphere(c, rsq) {
		return paratreet.CellApprox
	}
	return paratreet.CellOpenBoth
}

func (d dualGravity) Node(source *paratreet.Node[gravity.CentroidData], target *paratreet.Bucket) {
	gravity.Visitor[gravity.CentroidData]{P: d.par, Get: func(x *gravity.CentroidData) *gravity.CentroidData { return x }}.Node(source, target)
}

func (d dualGravity) Leaf(source *paratreet.Node[gravity.CentroidData], target *paratreet.Bucket) {
	gravity.New(d.par).Leaf(source, target)
}

var _ traverse.DualVisitor[gravity.CentroidData] = dualGravity{}

// BenchmarkTwoPointCorrelation times the dual-tree pair-counting
// application (the n-point correlation workload the paper's introduction
// motivates). Pair counting is near-quadratic in N even dual-tree-pruned,
// so it runs at a smaller N than the other benches.
func BenchmarkTwoPointCorrelation(b *testing.B) {
	ps := particle.NewUniform(benchN/4, 42, benchBox())
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	bins := twopoint.NewBins(0.05, 1.8, 8)
	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			paratreet.StartDual(s, 4, func(p *paratreet.Partition[knn.Data]) twopoint.Visitor {
				return twopoint.Visitor{Bins: bins}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1, driver); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsOverhead compares a gravity iteration with metrics
// disabled (the default nil-registry path), with counters enabled, and
// with counters plus tracing — the disabled variant is the regression
// guard for the "near-zero overhead off" design goal.
func BenchmarkMetricsOverhead(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	variants := []struct {
		name string
		reg  func() *paratreet.MetricsRegistry
	}{
		{"disabled", func() *paratreet.MetricsRegistry { return nil }},
		{"counters", func() *paratreet.MetricsRegistry {
			return paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
		}},
		{"counters+trace", func() *paratreet.MetricsRegistry {
			return paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: 1 << 16})
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			ps := particle.NewClustered(benchN, 42, benchBox(), 8)
			iterateGravity(b, paratreet.Config{
				Procs: benchProcs, WorkersPerProc: benchWPP,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: benchBucket, Metrics: v.reg(),
			}, ps, gravityBenchDriver(par))
		})
	}
}

// openAllVisitor opens every node and does nothing at the leaves: a
// traversal whose cost is almost entirely the engine's frame machinery
// (push/pop/process bookkeeping), with no physics kernel to hide it.
type openAllVisitor struct{}

func (openAllVisitor) Open(*paratreet.Node[gravity.CentroidData], *paratreet.Bucket) bool {
	return true
}
func (openAllVisitor) Node(*paratreet.Node[gravity.CentroidData], *paratreet.Bucket) {}
func (openAllVisitor) Leaf(*paratreet.Node[gravity.CentroidData], *paratreet.Bucket) {}

// BenchmarkEngineOverhead measures the traversal engine's per-frame
// overhead in isolation: an open-everything visitor touches every
// (node, active-bucket-list) frame but performs no particle work, so
// engine bookkeeping dominates the profile.
//
// openAllVisitor has only Open/Node/Leaf, so it runs through the per-pair
// adapter: what is measured is the frame scheduler, the arena and the
// adapter's loop. The per-bucket style is the scheduler's worst case (one
// frame per node per bucket), the transposed style the adapter's (every
// pair opens, and at a leaf the adapter still records each one). Alternated
// parent/change binaries on the 2-core development host, -benchtime=5x,
// before -> after the pumper-owned frame stack and the source-major call
// (PR 13): per-bucket/bare 1088/1103 -> 675/700 ms/op, per-bucket/metrics
// 1458/1436 -> 691/692 ms/op (counters are fed once per pump session now),
// transposed/bare 52.4/57.1 -> 55.9/59.3 ms/op, transposed/metrics
// 52.3/54.8 -> 58.2/59.4 ms/op.
// Each style also runs with metrics counters and with counters+tracing:
// the trace variant's regression budget is 5% over metrics-only — span
// emission reuses the clock reads the runtime already takes at task
// granularity, so the marginal cost is one ring append per task/message/
// fetch, not per frame.
func BenchmarkEngineOverhead(b *testing.B) {
	variants := []struct {
		name string
		reg  func() *paratreet.MetricsRegistry
	}{
		{"bare", func() *paratreet.MetricsRegistry { return nil }},
		{"metrics", func() *paratreet.MetricsRegistry {
			return paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
		}},
		{"metrics+trace", func() *paratreet.MetricsRegistry {
			return paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: 1 << 16})
		}},
	}
	for _, style := range []paratreet.TraversalStyle{paratreet.StyleTransposed, paratreet.StylePerBucket} {
		for _, v := range variants {
			b.Run(style.String()+"/"+v.name, func(b *testing.B) {
				ps := particle.NewUniform(benchN, 42, benchBox())
				sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
					Procs: benchProcs, WorkersPerProc: benchWPP,
					Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
					BucketSize: benchBucket, Style: style, Metrics: v.reg(),
				}, gravity.Accumulator{}, gravity.Codec{}, ps)
				if err != nil {
					b.Fatal(err)
				}
				defer sim.Close()
				driver := paratreet.DriverFuncs[gravity.CentroidData]{
					TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
						paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) openAllVisitor {
							return openAllVisitor{}
						})
					},
				}
				if err := sim.Run(1, driver); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sim.Run(1, driver); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShareDepthAblation sweeps the branch-node sharing knob.
func BenchmarkShareDepthAblation(b *testing.B) {
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	for _, depth := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("share=%d", depth), func(b *testing.B) {
			ps := particle.NewUniform(benchN, 42, benchBox())
			iterateGravity(b, paratreet.Config{
				Procs: benchProcs, WorkersPerProc: benchWPP,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: benchBucket, ShareDepth: depth,
			}, ps, gravityBenchDriver(par))
		})
	}
}
