package knn

import (
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

// sourceVisitor is what the engines see of both kNN visitors: the per-pair
// contract and the native source-major call.
type sourceVisitor interface {
	traverse.Visitor[Data]
	traverse.SourceVisitor[Data]
}

// freshLimSq recomputes a bucket's pruning limit from its heaps and box,
// the way Open computed it before the limit was cached.
func freshLimSq(st *State, box vec.Box) float64 {
	mb := 0.0
	for i := range st.Heaps {
		h := &st.Heaps[i]
		if len(h.items) < h.k {
			return math.Inf(1)
		}
		mb = math.Max(mb, h.items[0].DistSq)
	}
	lim := math.Sqrt(mb) + math.Sqrt(box.FarDistSq(box.Center()))
	return lim * lim
}

// openUncached is the Open decision with the limit recomputed per call.
func openUncached(source *tree.Node[Data], b *traverse.Bucket) bool {
	if source.Data.N == 0 {
		return false
	}
	st := b.State.(*State)
	if source.Box.DistSq(b.Box.Center()) > freshLimSq(st, b.Box) {
		return false
	}
	for i := range b.Particles {
		if source.Box.DistSq(b.Particles[i].Pos) <= st.Heaps[i].bound() {
			return true
		}
	}
	return false
}

// TestSourceMajorMatchesPerPair holds the native VisitSource of Visitor and
// GenericVisitor to the per-pair contract it replaces: frame after frame
// over the nodes of random trees — empty leaves (Data.N == 0) included — and
// random active lists, one VisitSource call must open the buckets Open opens
// pair by pair, and leave every heap with the entries, in the order, that
// Leaf leaves. Open must also agree with the decision recomputed from the
// heaps, and after every Leaf each bucket's cached limit must equal a fresh
// recomputation. A k beyond the candidates the sweeps offer keeps every heap
// short of full, so the limit stays +Inf throughout.
func TestSourceMajorMatchesPerPair(t *testing.T) {
	box := vec.UnitBox()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := particle.NewClustered(400, seed, box, 3)
		tree.AssignKeys(ps, box, sfc.MortonKey)
		root := tree.Build[Data](ps, box, tree.RootKey, 0, tree.BuildConfig{Type: tree.Octree, BucketSize: 10})
		tree.Accumulate[Data](root, Accumulator{})
		var nodes []*tree.Node[Data]
		empty := 0
		tree.Walk(root, func(n *tree.Node[Data]) bool {
			nodes = append(nodes, n)
			if n.Data.N == 0 {
				empty++
			}
			return true
		})
		if empty == 0 {
			t.Fatal("setup: no source with Data.N == 0")
		}
		leaves := tree.Leaves(root, nil)

		// Each sweep offers every particle to a heap at most once, so
		// k = 2·len(ps)+1 is more than two sweeps can reach.
		for _, k := range []int{1, 4, 16, 2*len(ps) + 1} {
			for _, excludeSelf := range []bool{false, true} {
				for _, c := range []struct {
					name string
					v    sourceVisitor
				}{
					{"Visitor", Visitor{K: k, ExcludeSelf: excludeSelf}},
					{"GenericVisitor", GenericVisitor[Data]{ExcludeSelf: excludeSelf, Count: func(d *Data) int { return d.N }}},
				} {
					name, v := c.name, c.v
					var native, ref []*traverse.Bucket
					for _, leaf := range leaves {
						if leaf.Data.N == 0 {
							continue
						}
						for _, set := range []*[]*traverse.Bucket{&native, &ref} {
							*set = append(*set, &traverse.Bucket{Key: leaf.Key, Box: leaf.Box, Particles: particle.Clone(leaf.Particles)})
						}
					}
					Attach(native, k)
					Attach(ref, k)
					filled := false

					// Two sweeps in random order: the second meets heaps
					// filled, and bounds shrunk, by the first.
					for sweep := 0; sweep < 2; sweep++ {
						for _, ni := range rng.Perm(len(nodes)) {
							n := nodes[ni]
							active := make([]int32, 1+rng.Intn(len(native)))
							for i, bi := range rng.Perm(len(native))[:len(active)] {
								active[i] = int32(bi)
							}
							leaf := n.Kind().IsLeaf()
							got := v.VisitSource(n, native, active, nil, leaf)
							var want []int32
							for _, bi := range active {
								b := ref[bi]
								open := v.Open(n, b)
								if open != openUncached(n, b) {
									t.Fatalf("%s seed %d k %d node %#x bucket %d: Open %v, recomputed %v", name, seed, k, n.Key, bi, open, !open)
								}
								switch {
								case !open:
									v.Node(n, b)
								case leaf:
									v.Leaf(n, b)
									fallthrough
								default:
									want = append(want, bi)
								}
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s seed %d k %d exclude %v node %#x: opened %v, per-pair opens %v", name, seed, k, excludeSelf, n.Key, got, want)
							}
							if !leaf {
								continue
							}
							for _, bi := range active {
								for _, b := range []*traverse.Bucket{native[bi], ref[bi]} {
									st := b.State.(*State)
									if fresh := freshLimSq(st, b.Box); st.limSq != fresh {
										t.Fatalf("%s seed %d k %d bucket %d: cached limit %v, recomputed %v", name, seed, k, bi, st.limSq, fresh)
									}
									filled = filled || !math.IsInf(st.limSq, 1)
								}
							}
						}
					}
					if k > len(ps) && filled {
						t.Fatalf("%s seed %d k %d: a limit went finite with more neighbours asked than particles", name, seed, k)
					}
					if k == 1 && !filled {
						t.Fatalf("%s seed %d k %d: no heap ever filled", name, seed, k)
					}
					for bi := range native {
						g, w := native[bi].State.(*State), ref[bi].State.(*State)
						for i := range g.Heaps {
							if !slices.Equal(g.Heaps[i].items, w.Heaps[i].items) {
								t.Fatalf("%s seed %d k %d exclude %v bucket %d particle %d: source-major heap %v, per-pair %v",
									name, seed, k, excludeSelf, bi, i, g.Heaps[i].items, w.Heaps[i].items)
							}
						}
					}
				}
			}
		}
	}
}
