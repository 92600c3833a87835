package paratreet_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
)

// Golden single-process checksums. On one process nothing parks, so every
// bucket meets its sources in an order fixed by the tree alone: the bits of
// every acceleration and the order of every neighbour heap are a function
// of the walk. The constants below were recorded at the commit before the
// traversal core was rebuilt around the source-major call (PR 13); a
// change that reorders a bucket's visits, or the arithmetic of a kernel,
// moves them.
const (
	goldenGravityTransposed = 0x21445fff0391d62f
	goldenGravityPerBucket  = 0x62d1b36e442c8a3f
	goldenGravityQuadrupole = 0xb45e68f17f3fc163
	goldenKNNHeapOrder      = 0x431a710206c601ad
)

func goldenConfig(style paratreet.TraversalStyle) paratreet.Config {
	return paratreet.Config{
		Procs: 1, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		Style: style,
	}
}

// goldenGravity hashes (ID, Acc, Potential) of every particle, by ID, after
// one Barnes-Hut pass.
func goldenGravity(t *testing.T, style paratreet.TraversalStyle, par gravity.Params) uint64 {
	t.Helper()
	ps := particle.NewClustered(3000, 99, paratreet.Box{Max: paratreet.V(1, 1, 1)}, 5)
	sim, err := paratreet.NewSimulation[gravity.CentroidData](goldenConfig(style), gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	err = sim.Run(1, paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], _ int) {
			paratreet.StartDown(s, func(*paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := particle.Clone(sim.Particles())
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range out {
		p := &out[i]
		word(uint64(p.ID))
		for _, f := range [4]float64{p.Acc.X, p.Acc.Y, p.Acc.Z, p.Potential} {
			word(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// goldenKNN hashes every particle's neighbour IDs in heap order, by
// particle ID, after one up-and-down search.
func goldenKNN(t *testing.T) uint64 {
	t.Helper()
	const k = 16
	ps := particle.NewCosmological(3000, 99, paratreet.Box{Max: paratreet.V(1, 1, 1)})
	sim, err := paratreet.NewSimulation[knn.Data](goldenConfig(paratreet.StyleTransposed), knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	lists := make([][]int64, len(ps))
	err = sim.Run(1, paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], _ int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), k)
			}
			paratreet.StartUpAndDown(s, func(*paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: k, ExcludeSelf: true}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], _ int) {
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					for _, nb := range st.Neighbors(i) {
						lists[b.Particles[i].ID] = append(lists[b.Particles[i].ID], nb.ID)
					}
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for id, l := range lists {
		if len(l) != k {
			t.Fatalf("particle %d has %d neighbours, want %d", id, len(l), k)
		}
		for _, nb := range l {
			binary.LittleEndian.PutUint64(buf[:], uint64(nb))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestGoldenSingleProcess(t *testing.T) {
	mono := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	quad := mono
	quad.Quadrupole = true
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"gravity/transposed", goldenGravity(t, paratreet.StyleTransposed, mono), goldenGravityTransposed},
		{"gravity/per-bucket", goldenGravity(t, paratreet.StylePerBucket, mono), goldenGravityPerBucket},
		{"gravity/quadrupole", goldenGravity(t, paratreet.StyleTransposed, quad), goldenGravityQuadrupole},
		{"knn/heap-order", goldenKNN(t), goldenKNNHeapOrder},
	} {
		if c.got != c.want {
			t.Errorf("%s: checksum %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
