package sph_test

import (
	"math"
	"testing"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
	"paratreet/internal/vec"
)

func TestKernelProperties(t *testing.T) {
	h := 0.3
	if sph.KernelW(0, h) <= 0 {
		t.Error("kernel should be positive at r=0")
	}
	if sph.KernelW(2*h, h) != 0 || sph.KernelW(3*h, h) != 0 {
		t.Error("kernel should vanish at and beyond 2h")
	}
	// Monotone decreasing on [0, 2h].
	prev := sph.KernelW(0, h)
	for r := 0.01 * h; r < 2*h; r += 0.01 * h {
		w := sph.KernelW(r, h)
		if w > prev+1e-12 {
			t.Fatalf("kernel increased at r=%v", r)
		}
		prev = w
	}
	if sph.KernelW(0.1, 0) != 0 {
		t.Error("h=0 kernel should be 0")
	}
}

func TestKernelNormalization(t *testing.T) {
	// ∫ W d³r = 1: integrate radially, 4π ∫ W(r) r² dr over [0, 2h].
	h := 0.5
	const steps = 20000
	dr := 2 * h / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		r := (float64(i) + 0.5) * dr
		sum += sph.KernelW(r, h) * r * r * dr
	}
	total := 4 * math.Pi * sum
	if math.Abs(total-1) > 1e-3 {
		t.Errorf("kernel integral %v, want 1", total)
	}
}

func TestKernelGradientMatchesFiniteDifference(t *testing.T) {
	h := 0.4
	for _, r := range []float64{0.1, 0.3, 0.5, 0.7} {
		eps := 1e-6
		fd := (sph.KernelW(r+eps, h) - sph.KernelW(r-eps, h)) / (2 * eps)
		an := sph.KernelGradW(r, h)
		if math.Abs(fd-an) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("r=%v: grad %v vs fd %v", r, an, fd)
		}
	}
	if sph.KernelGradW(0, 0.4) != 0 {
		t.Error("gradient at r=0 should be 0")
	}
}

func TestUniformLatticeDensity(t *testing.T) {
	// A uniform lattice of unit-mass particles with spacing s has bulk
	// number density 1/s³; SPH density should be within ~15% for interior
	// particles.
	const side = 8
	s := 1.0 / side
	var ps []particle.Particle
	id := int64(0)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				ps = append(ps, particle.Particle{
					ID:   id,
					Mass: 1,
					Pos:  vec.V(float64(x)*s, float64(y)*s, float64(z)*s),
				})
				id++
			}
		}
	}
	par := sph.Params{K: 32, Gamma: 5.0 / 3.0, U: 1}
	sph.BruteForceDensity(ps, par)
	expect := 1 / (s * s * s)
	for i := range ps {
		p := ps[i]
		// Interior particles only.
		interior := p.Pos.X > 2*s && p.Pos.X < 1-3*s &&
			p.Pos.Y > 2*s && p.Pos.Y < 1-3*s &&
			p.Pos.Z > 2*s && p.Pos.Z < 1-3*s
		if !interior {
			continue
		}
		if p.Density < 0.8*expect || p.Density > 1.2*expect {
			t.Fatalf("interior particle %d density %v, expect ~%v", i, p.Density, expect)
		}
		if p.Pressure <= 0 {
			t.Fatalf("pressure %v", p.Pressure)
		}
	}
}

// runKNNDensity computes densities through the framework with sph.Driver
// (the up-and-down kNN traversal that cmd/sph and Fig 11 run), returning
// density by particle ID.
func runKNNDensity(t *testing.T, ps []particle.Particle, par sph.Params, procs, workers int) map[int64]float64 {
	t.Helper()
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: procs, WorkersPerProc: workers,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
	}, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(1, sph.Driver(par)); err != nil {
		t.Fatal(err)
	}
	out := map[int64]float64{}
	for _, p := range sim.Particles() {
		out[p.ID] = p.Density
	}
	return out
}

func TestFrameworkDensityMatchesBruteForce(t *testing.T) {
	const n = 500
	ps := particle.NewCosmological(n, 5, vec.UnitBox())
	par := sph.Params{K: 16, Gamma: 5.0 / 3.0, U: 1}
	ref := particle.Clone(ps)
	sph.BruteForceDensity(ref, par)
	refByID := map[int64]float64{}
	for i := range ref {
		refByID[ref[i].ID] = ref[i].Density
	}
	got := runKNNDensity(t, particle.Clone(ps), par, 3, 2)
	if len(got) != n {
		t.Fatalf("%d densities", len(got))
	}
	for id, rho := range got {
		want := refByID[id]
		if math.Abs(rho-want) > 1e-9*(1+want) {
			t.Fatalf("particle %d density %v, want %v", id, rho, want)
		}
	}
}

func TestBallStateConvergence(t *testing.T) {
	// Gadget-style convergence without the framework: brute-force balls.
	ps := particle.NewUniform(400, 6, vec.UnitBox())
	k, tol := 16, 2
	radii := make([]float64, len(ps))
	for i := range radii {
		radii[i] = 0.05
	}
	iterations := 0
	for round := 0; round < 40; round++ {
		iterations++
		pending := 0
		for i := range ps {
			var found []knn.Neighbor
			r2 := radii[i] * radii[i]
			for j := range ps {
				if i == j {
					continue
				}
				d2 := ps[j].Pos.DistSq(ps[i].Pos)
				if d2 <= r2 {
					found = append(found, knn.Neighbor{DistSq: d2, ID: ps[j].ID, Mass: ps[j].Mass, Pos: ps[j].Pos})
				}
			}
			st := sph.BallState{Radii: []float64{radii[i]}, Found: [][]knn.Neighbor{found}}
			if st.ConvergeRadii(k, tol) > 0 {
				radii[i] = st.Radii[0]
				pending++
			}
		}
		if pending == 0 {
			break
		}
	}
	if iterations >= 40 {
		t.Fatal("ball search did not converge")
	}
	// Converged radii should enclose ~k neighbors.
	for i := range ps {
		count := 0
		r2 := radii[i] * radii[i]
		for j := range ps {
			if i != j && ps[j].Pos.DistSq(ps[i].Pos) <= r2 {
				count++
			}
		}
		if count < k-tol || count > k+tol {
			t.Fatalf("particle %d has %d neighbors in converged ball", i, count)
		}
	}
}

func TestPressureAccelOpposesCompression(t *testing.T) {
	// A particle between two neighbors on the x axis, slightly closer to
	// the left one, must be pushed away from it (+x).
	ps := []particle.Particle{
		{ID: 0, Mass: 1, Pos: vec.V(0, 0, 0)},
		{ID: 1, Mass: 1, Pos: vec.V(0.45, 0, 0)}, // target: 0.45 from left, 0.55 from right
		{ID: 2, Mass: 1, Pos: vec.V(1, 0, 0)},
	}
	par := sph.Params{K: 2, Gamma: 5.0 / 3.0, U: 1}
	sph.BruteForceDensity(ps, par)
	lists := knn.BruteForce(ps, 2, true)
	state := func(id int64) (float64, float64, float64, bool) {
		for i := range ps {
			if ps[i].ID == id {
				return ps[i].Density, ps[i].Pressure, ps[i].SmoothLen, true
			}
		}
		return 0, 0, 0, false
	}
	sph.PressureAccel(&ps[1], lists[1], state)
	if ps[1].Acc.X <= 0 {
		t.Errorf("particle pushed toward the nearer neighbor: %v", ps[1].Acc)
	}
}

func TestDensityEdgeCases(t *testing.T) {
	p := particle.Particle{Mass: 1}
	sph.DensityFromNeighbors(&p, nil)
	if p.Density != 0 || p.SmoothLen != 0 {
		t.Error("no neighbors should give zero density")
	}
	var empty sph.BallState
	if empty.ConvergeRadii(8, 1) != 0 {
		t.Error("empty ball state should be converged")
	}
}
