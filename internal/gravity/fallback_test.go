package gravity_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

// TestFallbackMatchesGoldens runs the gravity passes of the root
// package's TestGoldenSingleProcess with the assembly in use (where the
// CPU has it) and turned off: both must give the checksums recorded
// there, so the Go bodies a host without AVX2 runs give the answers the
// assembly gives.
func TestFallbackMatchesGoldens(t *testing.T) {
	const (
		goldenGravityTransposed = 0x21445fff0391d62f // as in golden_test.go
		goldenGravityPerBucket  = 0x62d1b36e442c8a3f
	)
	run := func(kernels string) {
		for _, c := range []struct {
			style paratreet.TraversalStyle
			want  uint64
		}{
			{paratreet.StyleTransposed, goldenGravityTransposed},
			{paratreet.StylePerBucket, goldenGravityPerBucket},
		} {
			if got := goldenChecksum(t, c.style); got != c.want {
				t.Errorf("%s kernels, %v: checksum %#x, want %#x", kernels, c.style, got, c.want)
			}
		}
	}
	run(gravity.Kernels())
	restore := gravity.DisableKernels()
	defer restore()
	if k := gravity.Kernels(); k != "go" {
		t.Fatalf("Kernels() = %q with the kernels off, want go", k)
	}
	run("go")
}

// goldenChecksum is golden_test.go's goldenGravity at theta 0.6: the FNV
// hash of (ID, Acc, Potential) of every particle, by ID, after one pass.
func goldenChecksum(t *testing.T, style paratreet.TraversalStyle) uint64 {
	t.Helper()
	ps := particle.NewClustered(3000, 99, paratreet.Box{Max: paratreet.V(1, 1, 1)}, 5)
	cfg := paratreet.Config{
		Procs: 1, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		Style: style,
	}
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
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
	for i := range out {
		p := &out[i]
		for _, w := range [5]uint64{uint64(p.ID), math.Float64bits(p.Acc.X), math.Float64bits(p.Acc.Y), math.Float64bits(p.Acc.Z), math.Float64bits(p.Potential)} {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
