package knn_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

func TestHeapViaBruteForce(t *testing.T) {
	// BruteForce exercises the heap directly; compare against full sort.
	ps := particle.NewUniform(200, 1, vec.UnitBox())
	k := 7
	got := knn.BruteForce(ps, k, true)
	for i := range ps {
		type cand struct {
			d2 float64
			id int64
		}
		var all []cand
		for j := range ps {
			if ps[j].ID == ps[i].ID {
				continue
			}
			all = append(all, cand{ps[j].Pos.DistSq(ps[i].Pos), ps[j].ID})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d2 < all[b].d2 })
		want := map[int64]bool{}
		for _, c := range all[:k] {
			want[c.id] = true
		}
		if len(got[i]) != k {
			t.Fatalf("particle %d: %d neighbors", i, len(got[i]))
		}
		for _, n := range got[i] {
			if !want[n.ID] {
				t.Fatalf("particle %d: wrong neighbor %d", i, n.ID)
			}
		}
	}
}

// runKNN performs the search through the full framework with the
// up-and-down traversal and returns neighbor ID sets by particle ID.
func runKNN(t *testing.T, ps []particle.Particle, k, procs, workers int) map[int64]map[int64]bool {
	t.Helper()
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: procs, WorkersPerProc: workers,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
	}, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	results := map[int64]map[int64]bool{}
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
			s.ForEachBucket(func(p *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					set := map[int64]bool{}
					for _, n := range st.Neighbors(i) {
						set[n.ID] = true
					}
					results[b.Particles[i].ID] = set
				}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestKNNMatchesBruteForce(t *testing.T) {
	const n, k = 600, 8
	ps := particle.NewClustered(n, 2, vec.UnitBox(), 3)
	ref := knn.BruteForce(ps, k, true)
	refSets := map[int64]map[int64]bool{}
	refDist := map[int64]float64{}
	for i := range ps {
		set := map[int64]bool{}
		far := 0.0
		for _, nb := range ref[i] {
			set[nb.ID] = true
			if nb.DistSq > far {
				far = nb.DistSq
			}
		}
		refSets[ps[i].ID] = set
		refDist[ps[i].ID] = far
	}

	got := runKNN(t, particle.Clone(ps), k, 3, 2)
	if len(got) != n {
		t.Fatalf("results for %d particles", len(got))
	}
	for id, set := range got {
		if len(set) != k {
			t.Fatalf("particle %d has %d neighbors", id, len(set))
		}
		for nb := range set {
			if !refSets[id][nb] {
				// Allow ties at the k-th distance: verify the candidate is
				// not farther than the reference k-th distance.
				var d2 float64 = math.Inf(1)
				for i := range ps {
					if ps[i].ID == nb {
						for j := range ps {
							if ps[j].ID == id {
								d2 = ps[i].Pos.DistSq(ps[j].Pos)
							}
						}
					}
				}
				if d2 > refDist[id]+1e-12 {
					t.Fatalf("particle %d: neighbor %d at %v exceeds k-th distance %v",
						id, nb, d2, refDist[id])
				}
			}
		}
	}
}

// neighborLists runs one up-and-down kNN step per k in ks on sim, the
// state attached by attach, and returns, per step, each particle's
// neighbours as (distance, ID) in ascending order.
func neighborLists(t *testing.T, sim *paratreet.Simulation[knn.Data], attach func(p *paratreet.Partition[knn.Data], k int), ks ...int) []map[int64][]knn.Neighbor {
	t.Helper()
	var out []map[int64][]knn.Neighbor
	for _, k := range ks {
		lists := map[int64][]knn.Neighbor{}
		driver := paratreet.DriverFuncs[knn.Data]{
			TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				for _, p := range s.Partitions() {
					attach(p, k)
				}
				paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
					return knn.Visitor{K: k, ExcludeSelf: true}
				})
			},
			PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				s.ForEachBucket(func(p *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
					st := b.State.(*knn.State)
					for i := range b.Particles {
						if c := cap(st.Neighbors(i)); c < k {
							t.Fatalf("k=%d: particle %d's heap has capacity %d", k, b.Particles[i].ID, c)
						}
						lists[b.Particles[i].ID] = sortedNeighbors(st.Neighbors(i))
					}
				})
			},
		}
		if err := sim.Run(1, driver); err != nil {
			t.Fatal(err)
		}
		out = append(out, lists)
	}
	return out
}

func sortedNeighbors(nbrs []knn.Neighbor) []knn.Neighbor {
	out := append([]knn.Neighbor(nil), nbrs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistSq != out[j].DistSq {
			return out[i].DistSq < out[j].DistSq
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// requireBruteForce checks every list holds exactly the k smallest
// distances of a brute-force scan (distances, so ties cannot matter).
func requireBruteForce(t *testing.T, ps []particle.Particle, lists map[int64][]knn.Neighbor, k int) {
	t.Helper()
	ref := knn.BruteForce(ps, k, true)
	for i := range ps {
		want := sortedNeighbors(ref[i])
		got := lists[ps[i].ID]
		if len(got) != len(want) {
			t.Fatalf("k=%d: particle %d has %d neighbours, brute force %d", k, ps[i].ID, len(got), len(want))
		}
		for j := range want {
			if got[j].DistSq != want[j].DistSq {
				t.Fatalf("k=%d: particle %d neighbour %d at %v, brute force %v", k, ps[i].ID, j, got[j].DistSq, want[j].DistSq)
			}
		}
	}
}

// TestAttachDisjointSubsets: a partition's heaps are indexed by particle
// offset, so attaching its buckets in two calls gives each half its own
// storage — the answers equal one call's and brute force's — and one
// partition's arena serves calls with different k (8, 32, 8, 32) with
// room for k every time and nothing carried over from the call
// before.
func TestAttachDisjointSubsets(t *testing.T) {
	const n = 600
	ps := particle.NewClustered(n, 8, vec.UnitBox(), 3)
	newSim := func() *paratreet.Simulation[knn.Data] {
		sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
			Procs: 1, WorkersPerProc: 1, Partitions: 3,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
		}, knn.Accumulator{}, knn.Codec{}, particle.Clone(ps))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	whole := func(p *paratreet.Partition[knn.Data], k int) { knn.Attach(p.Buckets(), k) }

	t.Run("halves", func(t *testing.T) {
		const k = 8
		one, two := newSim(), newSim()
		defer one.Close()
		defer two.Close()
		want := neighborLists(t, one, whole, k)[0]
		got := neighborLists(t, two, func(p *paratreet.Partition[knn.Data], k int) {
			bs := p.Buckets()
			knn.Attach(bs[:len(bs)/2], k)
			knn.Attach(bs[len(bs)/2:], k)
		}, k)[0]
		requireBruteForce(t, ps, got, k)
		for id, w := range want {
			if !reflect.DeepEqual(got[id], w) {
				t.Fatalf("particle %d: two calls found %v, one call %v", id, got[id], w)
			}
		}
	})

	t.Run("k-changes", func(t *testing.T) {
		sim := newSim()
		defer sim.Close()
		ks := []int{8, 32, 8, 32} // k outgrows the arena, then falls back under it
		for i, lists := range neighborLists(t, sim, whole, ks...) {
			requireBruteForce(t, ps, lists, ks[i])
		}
	})
}

func TestKNNSingleProc(t *testing.T) {
	const n, k = 300, 4
	ps := particle.NewUniform(n, 3, vec.UnitBox())
	got := runKNN(t, ps, k, 1, 1)
	for id, set := range got {
		if len(set) != k {
			t.Fatalf("particle %d has %d neighbors", id, len(set))
		}
	}
}

func TestKNNWithSelfIncluded(t *testing.T) {
	ps := particle.NewUniform(100, 4, vec.UnitBox())
	got := knn.BruteForce(ps, 3, false)
	for i := range ps {
		foundSelf := false
		for _, n := range got[i] {
			if n.ID == ps[i].ID {
				foundSelf = true
			}
		}
		if !foundSelf {
			t.Fatalf("particle %d: self not among 3 nearest when included", i)
		}
	}
}

func TestStateRadius(t *testing.T) {
	ps := []particle.Particle{
		{ID: 0, Pos: vec.V(0, 0, 0)},
		{ID: 1, Pos: vec.V(1, 0, 0)},
		{ID: 2, Pos: vec.V(2, 0, 0)},
	}
	res := knn.BruteForce(ps, 2, true)
	// Particle 0's neighbors are at 1 and 2; radius = 2.
	far := 0.0
	for _, n := range res[0] {
		if n.DistSq > far {
			far = n.DistSq
		}
	}
	if math.Abs(math.Sqrt(far)-2) > 1e-12 {
		t.Errorf("radius %v", math.Sqrt(far))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := knn.Data{N: 42}
	blob := knn.Codec{}.AppendData(nil, d)
	got, used := knn.Codec{}.DecodeData(blob)
	if used != len(blob) || got != d {
		t.Error("codec round trip failed")
	}
}

// TestKNNTiesMatchBruteForce: on a lattice every particle has six
// neighbours at the spacing, twelve at √2 times it, and so on, so a k that
// cuts a shell keeps some of equal-distance candidates and drops others. The
// heap keeps the smallest IDs among them, and so does brute force: lists
// equal entry for entry, whatever order the traversal met the candidates
// in, at one to four processes.
func TestKNNTiesMatchBruteForce(t *testing.T) {
	const side = 8
	ids := rand.New(rand.NewSource(3)).Perm(side * side * side)
	ps := make([]particle.Particle, 0, len(ids))
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				ps = append(ps, particle.Particle{
					ID: int64(ids[len(ps)]), Mass: 1,
					Pos: vec.V(0.125+float64(x)/16, 0.125+float64(y)/16, 0.125+float64(z)/16),
				})
			}
		}
	}
	ks := []int{4, 9}
	want := make([]map[int64][]knn.Neighbor, len(ks))
	for i, k := range ks {
		want[i] = map[int64][]knn.Neighbor{}
		for j, nbrs := range knn.BruteForce(ps, k, true) {
			want[i][ps[j].ID] = sortedNeighbors(nbrs)
		}
	}
	whole := func(p *paratreet.Partition[knn.Data], k int) { knn.Attach(p.Buckets(), k) }
	for procs := 1; procs <= 4; procs++ {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
				Procs: procs, WorkersPerProc: 2,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
			}, knn.Accumulator{}, knn.Codec{}, particle.Clone(ps))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			for i, lists := range neighborLists(t, sim, whole, ks...) {
				for id, w := range want[i] {
					if !reflect.DeepEqual(lists[id], w) {
						t.Fatalf("k %d: particle %d found %v, brute force %v", ks[i], id, lists[id], w)
					}
				}
			}
		})
	}
}
