package paratreet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
	"paratreet/internal/tree"
)

// degenerateSets are particle sets that put the build's split rule on its
// edge cases: zero-extent universes, buckets no depth can split, particles
// exactly on the planes octants are cut at.
func degenerateSets() map[string][]particle.Particle {
	at := func(pos ...paratreet.Vec3) []particle.Particle {
		ps := make([]particle.Particle, len(pos))
		for i, p := range pos {
			ps[i] = particle.Particle{ID: int64(i), Pos: p, Mass: 1}
		}
		return ps
	}
	repeat := func(p paratreet.Vec3, n int) []paratreet.Vec3 {
		out := make([]paratreet.Vec3, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	rng := rand.New(rand.NewSource(12))
	sets := map[string][]particle.Particle{
		"coincident-100":        at(repeat(paratreet.V(0.3, 0.4, 0.5), 100)...),
		"coincident-100+1":      at(append(repeat(paratreet.V(0.3, 0.4, 0.5), 100), paratreet.V(7, -2, 1))...),
		"n=1":                   at(paratreet.V(1, 2, 3)),
		"n=5-under-bucket-size": at(paratreet.V(0, 0, 0), paratreet.V(1, 0, 0), paratreet.V(0, 1, 0), paratreet.V(0, 0, 1), paratreet.V(1, 1, 1)),
	}
	var collinear, coplanar, faces, lattice, stacked []paratreet.Vec3
	for i := 0; i < 1000; i++ {
		x := rng.Float64()
		collinear = append(collinear, paratreet.V(x, 2*x, -x))
		coplanar = append(coplanar, paratreet.V(rng.Float64(), rng.Float64(), 0.25))
		// On a face of the unit cube: one coordinate pinned to 0 or 1.
		f := paratreet.V(rng.Float64(), rng.Float64(), rng.Float64())
		side := float64(rng.Intn(2))
		switch i % 3 {
		case 0:
			f.X = side
		case 1:
			f.Y = side
		default:
			f.Z = side
		}
		faces = append(faces, f)
	}
	// A 16^3 lattice of multiples of 1/16 in a unit-cube universe (the far
	// corner anchors it): every lattice plane is some octant's mid-plane.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			for k := 0; k < 16; k++ {
				lattice = append(lattice, paratreet.V(float64(i)/16, float64(j)/16, float64(k)/16))
			}
		}
	}
	lattice = append(lattice, paratreet.V(1, 1, 1))
	spots := make([]paratreet.Vec3, 50)
	for i := range spots {
		spots[i] = paratreet.V(rng.Float64(), rng.Float64(), rng.Float64())
	}
	for i := 0; i < 2000; i++ {
		stacked = append(stacked, spots[i%len(spots)])
	}
	sets["collinear-1000"] = at(collinear...)
	sets["coplanar-1000"] = at(coplanar...)
	sets["universe-faces-1000"] = at(faces...)
	sets["lattice-16^3-on-midplanes"] = at(lattice...)
	sets["2000-at-50-positions"] = at(stacked...)
	return sets
}

// worldShape is what every build arm must agree on.
type worldShape struct {
	leaves   []string // per subtree, per leaf: key and bucket size
	rootData [][]byte // per subtree: encoded root Data
	census   []int    // per partition
}

func shapeOf(t *testing.T, sim *paratreet.Simulation[gravity.CentroidData], label string) worldShape {
	t.Helper()
	var s worldShape
	for _, st := range sim.World().Subtrees {
		if err := tree.Validate(st.Root, tree.Octree, 0); err != nil {
			t.Fatalf("%s: subtree %#x: %v", label, st.Key, err)
		}
		for _, leaf := range tree.Leaves(st.Root, nil) {
			s.leaves = append(s.leaves, fmt.Sprintf("%#x:%d", leaf.Key, len(leaf.Particles)))
		}
		s.rootData = append(s.rootData, gravity.Codec{}.AppendData(nil, st.Root.Data))
	}
	for _, p := range sim.Partitions() {
		s.census = append(s.census, p.NumParticles())
	}
	return s
}

// TestDegenerateInputsOneAnswer: serial, parallel and patched builds split
// octants by one rule, so on degenerate particle sets — where a position
// scan and a key-prefix search used to disagree — every arm gives the same
// leaves, buckets, root Data and partition census, and valid subtrees.
func TestDegenerateInputsOneAnswer(t *testing.T) {
	const builds = 3
	for name, ps0 := range degenerateSets() {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p%d", name, procs), func(t *testing.T) {
				var want worldShape
				for _, arm := range []struct {
					workers     int
					incremental bool
				}{{0, false}, {4, false}, {0, true}, {4, true}} {
					label := fmt.Sprintf("workers=%d incremental=%v", arm.workers, arm.incremental)
					sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
						Procs: procs, WorkersPerProc: 1, BuildWorkers: arm.workers,
						Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
						Incremental: arm.incremental,
					}, gravity.Accumulator{}, gravity.Codec{}, particle.Clone(ps0))
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					for b := 0; b < builds; b++ {
						// Dirty one leaf without moving anything.
						cur := sim.Particles()
						for i := range cur {
							if cur[i].ID == 0 {
								cur[i].Vel.X = float64(b)
							}
						}
						if err := sim.BuildOnly(); err != nil {
							t.Fatalf("%s: build %d: %v", label, b, err)
						}
					}
					if arm.incremental && sim.BuildStats().Mode != "incremental" {
						t.Fatalf("%s: third build took mode %q (%s)", label, sim.BuildStats().Mode, sim.BuildStats().FallbackReason)
					}
					got := shapeOf(t, sim, label)
					if want.leaves == nil {
						want = got
						continue
					}
					if fmt.Sprint(got.leaves) != fmt.Sprint(want.leaves) {
						t.Fatalf("%s: leaves differ from the serial scratch build:\n got %v\nwant %v", label, got.leaves, want.leaves)
					}
					for i := range want.rootData {
						if !bytes.Equal(got.rootData[i], want.rootData[i]) {
							t.Fatalf("%s: subtree %d root Data differs", label, i)
						}
					}
					if fmt.Sprint(got.census) != fmt.Sprint(want.census) {
						t.Fatalf("%s: partition census %v, want %v", label, got.census, want.census)
					}
				}
			})
		}
	}
}
