package gravity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/sfc"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// bits is a particle's traversal result, bit for bit.
func bits(p particle.Particle) [4]uint64 {
	return [4]uint64{math.Float64bits(p.Acc.X), math.Float64bits(p.Acc.Y), math.Float64bits(p.Acc.Z), math.Float64bits(p.Potential)}
}

// randomActive returns an active list over nb buckets made of runs of
// consecutive buckets, lone buckets past gaps, and repeats of buckets
// already listed.
func randomActive(rng *rand.Rand, nb int) []int32 {
	want := 1 + rng.Intn(40)
	var a []int32
	for len(a) < want {
		switch rng.Intn(4) {
		case 0:
			a = append(a, int32(rng.Intn(nb)))
		case 1:
			if len(a) > 0 {
				a = append(a, a[rng.Intn(len(a))])
			}
		default:
			start := rng.Intn(nb)
			for i := 0; i < 1+rng.Intn(8) && start+i < nb; i++ {
				a = append(a, int32(start+i))
			}
		}
	}
	return a
}

// TestPackedMatchesPerPair holds VisitSource to the per-pair contract:
// numbered buckets of 1-17 particles share one Targets, with nonzero
// (some negative-zero) starting accumulators, and Pack, then one
// VisitSource per node over random active lists (runs, gaps, repeats),
// then Unpack, must open what Open opens and leave every bit Node and
// Leaf leave. The nodes include massless ones, a leaf stripped of its
// particles (an empty source) and leaves whose particles are the
// buckets' own (self-pairs); every fifth bucket has an empty box. It runs
// at θ = 0.6 and at θ = 0, where a node with mass and extent has rsq
// +Inf and opens every bucket but the empty ones (a one-point box has rsq
// NaN and opens none). The theta=… arms run the bodies this host runs;
// the go/theta=… arms turn the assembly off, so visitPacked runs the Go
// bodies; the unnumbered/theta=… arms give the same buckets no Targets,
// so VisitSource takes its per-bucket path (buckets a caller built
// itself).
func TestPackedMatchesPerPair(t *testing.T) {
	arms := func(prefix string, numbered bool) {
		for _, theta := range []float64{0.6, 0} {
			t.Run(fmt.Sprintf("%stheta=%v", prefix, theta), func(t *testing.T) { testPackedMatchesPerPair(t, theta, numbered) })
		}
	}
	arms("", true)
	arms("unnumbered/", false)
	restore := DisableKernels()
	defer restore()
	arms("go/", true)
}

func testPackedMatchesPerPair(t *testing.T, theta float64, numbered bool) {
	box := vec.UnitBox()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := particle.NewClustered(1500, seed, box, 4)
		for i := range ps {
			if p := ps[i].Pos; p.X < 0.5 && p.Y < 0.5 && p.Z < 0.5 {
				ps[i].Mass = 0
			}
			ps[i].Acc = vec.V(rng.NormFloat64(), math.Copysign(0, -1), rng.NormFloat64())
			ps[i].Potential = -rng.Float64()
		}
		tree.AssignKeys(ps, box, sfc.MortonKey)
		root := tree.Build[CentroidData](ps, box, tree.RootKey, 0, tree.BuildConfig{Type: tree.Octree, BucketSize: 17})
		tree.Accumulate[CentroidData](root, Accumulator{})
		var nodes []*tree.Node[CentroidData]
		tree.Walk(root, func(n *tree.Node[CentroidData]) bool {
			if n.Kind() != tree.KindEmptyLeaf {
				nodes = append(nodes, n)
			}
			return true
		})
		leaves := tree.Leaves(root, nil)
		full := leaves[len(leaves)/2]
		stripped := tree.NewNode[CentroidData](full.Key, full.Level, tree.KindLeaf, 0)
		stripped.Box, stripped.Data = full.Box, full.Data
		nodes = append(nodes, stripped)

		targets := &traverse.Targets{}
		var native, ref []*traverse.Bucket
		for i, leaf := range leaves {
			b := traverse.Bucket{Key: leaf.Key, Box: leaf.Box, Particles: leaf.Particles}
			if i%5 == 0 {
				b.Box = vec.EmptyBox()
			}
			cp := b
			cp.Particles = particle.Clone(b.Particles)
			ref = append(ref, &cp)
			b.Particles = particle.Clone(b.Particles)
			if numbered {
				b.Targets, b.Offset = targets, targets.N
				targets.N += len(b.Particles)
			}
			native = append(native, &b)
		}

		v := New(Params{G: 1, Theta: theta, Soft: 1e-4})
		if numbered {
			v.Pack(native)
			if targets.Packed == nil {
				t.Fatal("Pack left no slab on the shared Targets")
			}
		}
		for _, n := range nodes {
			active := randomActive(rng, len(native))
			leaf := n.Kind().IsLeaf()
			got := v.VisitSource(n, native, active, nil, leaf)
			var want []int32
			for _, bi := range active {
				b := ref[bi]
				switch {
				case !v.Open(n, b):
					v.Node(n, b)
				case leaf:
					v.Leaf(n, b)
					fallthrough
				default:
					want = append(want, bi)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d node %#x: opened %v, per-pair opens %v", seed, n.Key, got, want)
			}
		}
		if numbered {
			v.Unpack(native)
			if targets.Packed != nil {
				t.Fatal("Unpack kept the slab")
			}
		}
		for bi := range native {
			for i := range native[bi].Particles {
				g, w := native[bi].Particles[i], ref[bi].Particles[i]
				if bits(g) != bits(w) {
					t.Fatalf("seed %d bucket %d particle %d: VisitSource (%v, %v), per-pair (%v, %v)",
						seed, bi, i, g.Acc, g.Potential, w.Acc, w.Potential)
				}
			}
		}
	}
}
