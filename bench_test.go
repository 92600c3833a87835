// Benchmarks with no counterpart in benchmark/ or a paratreet-bench
// experiment: the waiter registry, quickselect, the dual-tree engine, pair
// counting, and the traversal engine's per-frame overhead. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// End-to-end and per-layer numbers come from benchmark/ (see its README);
// the paper's tables and figures from cmd/paratreet-bench.
package paratreet_test

import (
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/psel"
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

// benchConfig is the simulated machine the simulation benchmarks run on.
func benchConfig() paratreet.Config {
	return paratreet.Config{
		Procs: benchProcs, WorkersPerProc: benchWPP,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: benchBucket,
	}
}

// benchIterations builds a simulation over ps, runs one warm-up iteration
// of driver, and times b.N more.
func benchIterations[D any](b *testing.B, cfg paratreet.Config, acc paratreet.Accumulator[D], codec paratreet.DataCodec[D], ps []particle.Particle, driver paratreet.Driver[D]) {
	b.Helper()
	sim, err := paratreet.NewSimulation(cfg, acc, codec, ps)
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

// BenchmarkDualTreeGravity exercises the dual-tree engine with the cell()
// decision on a gravity-like visitor.
func BenchmarkDualTreeGravity(b *testing.B) {
	ps := particle.NewUniform(benchN, 42, benchBox())
	benchIterations(b, benchConfig(), gravity.Accumulator{}, gravity.Codec{}, ps, paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], bk *paratreet.Bucket) {
				particle.ResetAcc(bk.Particles)
			})
			paratreet.StartDual(s, 4, func(p *paratreet.Partition[gravity.CentroidData]) dualGravity {
				return dualGravity{par: gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}}
			})
		},
	})
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
	bins := twopoint.NewBins(0.05, 1.8, 8)
	benchIterations(b, benchConfig(), knn.Accumulator{}, knn.Codec{}, ps, paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			paratreet.StartDual(s, 4, func(p *paratreet.Partition[knn.Data]) twopoint.Visitor {
				return twopoint.Visitor{Bins: bins}
			})
		},
	})
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
				cfg := benchConfig()
				cfg.Style, cfg.Metrics = style, v.reg()
				ps := particle.NewUniform(benchN, 42, benchBox())
				benchIterations(b, cfg, gravity.Accumulator{}, gravity.Codec{}, ps, paratreet.DriverFuncs[gravity.CentroidData]{
					TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
						paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) openAllVisitor {
							return openAllVisitor{}
						})
					},
				})
			})
		}
	}
}
