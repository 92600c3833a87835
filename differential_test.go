package paratreet_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"paratreet"
	"paratreet/internal/collision"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
)

// Differential tests: the same fixed-seed 2k-particle dataset is run
// through every decomposition type and every cache policy, and the
// results must agree.
//
// kNN and collision are exact algorithms (their pruning criteria are
// conservative), so their outputs must be identical across the entire
// decomp x policy crossproduct regardless of tree shape. Barnes-Hut
// gravity is an approximation whose interaction lists depend on the leaf
// structure, which legitimately varies with decomposition (a leaf split
// across subtree borders buckets earlier); across decompositions gravity
// is therefore compared against the exact Direct sum with a bounded
// median error, while across cache policies — which must never change
// which interactions happen, only how remote data arrives — it must match
// to floating-point summation-order tolerance.

var diffDecomps = []struct {
	name string
	d    paratreet.DecompType
}{
	{"sfc-morton", paratreet.DecompSFC},
	{"sfc-hilbert", paratreet.DecompSFCHilbert},
	{"oct", paratreet.DecompOct},
	{"orb", paratreet.DecompORB},
}

var diffPolicies = []struct {
	name string
	p    paratreet.CachePolicy
}{
	{"waitfree", paratreet.CacheWaitFree},
	{"xwrite", paratreet.CacheXWrite},
	{"perthread", paratreet.CachePerThread},
}

// diffCombos returns the decomp x policy cells to test: the full
// crossproduct normally, the two independent sweeps in -short mode.
func diffCombos(short bool) [][2]int {
	var combos [][2]int
	if short {
		for di := range diffDecomps {
			combos = append(combos, [2]int{di, 0})
		}
		for pi := 1; pi < len(diffPolicies); pi++ {
			combos = append(combos, [2]int{0, pi})
		}
		return combos
	}
	for di := range diffDecomps {
		for pi := range diffPolicies {
			combos = append(combos, [2]int{di, pi})
		}
	}
	return combos
}

func diffConfig(d paratreet.DecompType, p paratreet.CachePolicy) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: d, BucketSize: 16,
		CachePolicy: p, FetchDepth: 2,
	}
}

// runGravityOnce computes one Barnes-Hut acceleration pass and returns
// accelerations indexed by particle ID.
func runGravityOnce(t *testing.T, cfg paratreet.Config, ps []particle.Particle, par gravity.Params) []paratreet.Vec3 {
	t.Helper()
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}
	acc := make([]paratreet.Vec3, len(ps))
	for _, p := range sim.Particles() {
		acc[p.ID] = p.Acc
	}
	return acc
}

func TestDifferentialGravity(t *testing.T) {
	const n = 2000
	par := gravity.Params{G: 1, Theta: 0.5, Soft: 1e-3}
	ps0 := particle.NewClustered(n, 1234, paratreet.Box{Max: paratreet.V(1, 1, 1)}, 6)

	ref := particle.Clone(ps0)
	gravity.Direct(ref, par)
	exact := make([]paratreet.Vec3, n)
	for _, p := range ref {
		exact[p.ID] = p.Acc
	}

	// Reference BH run per decomposition (policy 0), so policy runs can be
	// held to FP tolerance against a same-tree baseline.
	perDecomp := make([][]paratreet.Vec3, len(diffDecomps))
	for _, combo := range diffCombos(testing.Short()) {
		di, pi := combo[0], combo[1]
		name := fmt.Sprintf("%s/%s", diffDecomps[di].name, diffPolicies[pi].name)
		acc := runGravityOnce(t, diffConfig(diffDecomps[di].d, diffPolicies[pi].p), particle.Clone(ps0), par)

		// Every cell: bounded error against the exact direct sum.
		var rel []float64
		for id := range acc {
			if norm := exact[id].Norm(); norm > 0 {
				rel = append(rel, acc[id].Sub(exact[id]).Norm()/norm)
			}
		}
		sort.Float64s(rel)
		if med := rel[len(rel)/2]; math.IsNaN(med) || med > 0.03 {
			t.Errorf("%s: median error vs direct sum %.4f", name, med)
		}

		// Same decomposition => same tree, same interaction lists: any two
		// policies may differ only in floating-point summation order.
		if perDecomp[di] == nil {
			perDecomp[di] = acc
			continue
		}
		base := perDecomp[di]
		for id := range acc {
			diff := acc[id].Sub(base[id]).Norm()
			scale := math.Max(base[id].Norm(), 1)
			if diff/scale > 1e-9 {
				t.Fatalf("%s: particle %d acc %v differs from %s baseline %v by %g (beyond FP tolerance)",
					name, id, acc[id], diffPolicies[0].name, base[id], diff/scale)
			}
		}
	}
}

func TestDifferentialKNN(t *testing.T) {
	const n = 2000
	const k = 12
	ps0 := particle.NewCosmological(n, 1234, paratreet.Box{Max: paratreet.V(1, 1, 1)})

	want := make([]float64, n)
	for i, nbs := range knn.BruteForce(ps0, k, true) {
		if len(nbs) != k {
			t.Fatalf("brute force found %d neighbors for particle %d", len(nbs), i)
		}
		// nbs[0] is the heap root: the farthest of the k nearest.
		want[ps0[i].ID] = math.Sqrt(nbs[0].DistSq)
	}

	for _, combo := range diffCombos(testing.Short()) {
		di, pi := combo[0], combo[1]
		name := fmt.Sprintf("%s/%s", diffDecomps[di].name, diffPolicies[pi].name)
		sim, err := paratreet.NewSimulation[knn.Data](diffConfig(diffDecomps[di].d, diffPolicies[pi].p),
			knn.Accumulator{}, knn.Codec{}, particle.Clone(ps0))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
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
				s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
					st := b.State.(*knn.State)
					for i := range b.Particles {
						got[b.Particles[i].ID] = st.Radius(i)
					}
				})
			},
		}
		err = sim.Run(1, driver)
		sim.Close()
		if err != nil {
			t.Fatal(err)
		}
		for id := range got {
			if math.Abs(got[id]-want[id]) > 1e-12 {
				t.Fatalf("%s: particle %d kNN radius %.17g, want %.17g", name, id, got[id], want[id])
			}
		}
	}
}

func TestDifferentialCollision(t *testing.T) {
	const n = 2000
	dp := particle.DefaultDiskParams()
	dp.BodyRadius = 0.01 // inflated so a handful of overlaps exist
	ps0 := particle.NewDisk(n, 1234, dp)
	const dt = 0.05
	const minID = 2 // skip star and planet

	want := collision.BruteForce(ps0, dt, minID)
	if len(want) == 0 {
		t.Fatal("test setup: no collisions in reference")
	}

	for _, combo := range diffCombos(testing.Short()) {
		di, pi := combo[0], combo[1]
		name := fmt.Sprintf("%s/%s", diffDecomps[di].name, diffPolicies[pi].name)
		sim, err := paratreet.NewSimulation[collision.Data](diffConfig(diffDecomps[di].d, diffPolicies[pi].p),
			collision.Accumulator{}, collision.Codec{}, particle.Clone(ps0))
		if err != nil {
			t.Fatal(err)
		}
		rec := collision.NewRecorder()
		driver := paratreet.DriverFuncs[collision.Data]{
			TraversalFn: func(s *paratreet.Simulation[collision.Data], iter int) {
				for _, p := range s.Partitions() {
					collision.Attach(p.Buckets())
				}
				paratreet.StartDown(s, func(p *paratreet.Partition[collision.Data]) collision.Visitor[collision.Data] {
					return collision.New(dt, 1, rec, minID)
				})
			},
		}
		err = sim.Run(1, driver)
		sim.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := make([][2]int64, 0, rec.Count())
		for _, e := range rec.Events {
			a, b := e.A, e.B
			if a > b {
				a, b = b, a
			}
			got = append(got, [2]int64{a, b})
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i][0] != got[j][0] {
				return got[i][0] < got[j][0]
			}
			return got[i][1] < got[j][1]
		})
		if len(got) != len(want) {
			t.Fatalf("%s: found %d pairs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}
