// Package sph implements smoothed-particle hydrodynamics (§III-B): cubic
// spline kernel, density estimation, an ideal-gas equation of state, and
// pressure accelerations. Two density algorithms are provided, matching
// the paper's comparison:
//
//   - KNN (ParaTreeT's): one k-nearest-neighbors traversal per particle
//     fixes the smoothing length at half the k-th neighbor distance and
//     yields the neighbor list directly.
//   - Gadget-2 style: each particle converges on a smoothing length by
//     repeated fixed-ball searches with bisection on the neighbor count —
//     "more parallelizable but less efficient".
package sph

import (
	"math"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// KernelW is the 3-D cubic spline kernel with compact support 2h.
func KernelW(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	q := r / h
	sigma := 1 / (math.Pi * h * h * h)
	switch {
	case q < 1:
		return sigma * (1 - 1.5*q*q + 0.75*q*q*q)
	case q < 2:
		d := 2 - q
		return sigma * 0.25 * d * d * d
	default:
		return 0
	}
}

// KernelGradW returns dW/dr (scalar radial derivative) of the cubic spline.
func KernelGradW(r, h float64) float64 {
	if h <= 0 || r <= 0 {
		return 0
	}
	q := r / h
	sigma := 1 / (math.Pi * h * h * h * h)
	switch {
	case q < 1:
		return sigma * (-3*q + 2.25*q*q)
	case q < 2:
		d := 2 - q
		return sigma * -0.75 * d * d
	default:
		return 0
	}
}

// Params holds the SPH model parameters.
type Params struct {
	// K is the neighbor count the smoothing length targets.
	K int
	// Gamma is the adiabatic index of the ideal-gas equation of state.
	Gamma float64
	// U is the (fixed) specific internal energy; P = (gamma-1)·rho·u.
	U float64
}

// DefaultParams returns K=32, gamma=5/3, u=1.
func DefaultParams() Params { return Params{K: 32, Gamma: 5.0 / 3.0, U: 1} }

// DensityFromNeighbors computes a particle's density and smoothing length
// from its neighbor list: h = r_max/2, rho = Σ m_j W(r_ij, h) including
// the self term.
func DensityFromNeighbors(p *particle.Particle, neighbors []knn.Neighbor) {
	far := 0.0
	for _, n := range neighbors {
		if n.DistSq > far {
			far = n.DistSq
		}
	}
	h := math.Sqrt(far) / 2
	if h == 0 {
		p.SmoothLen = 0
		p.Density = 0
		return
	}
	rho := p.Mass * KernelW(0, h) // self contribution
	for _, n := range neighbors {
		rho += n.Mass * KernelW(math.Sqrt(n.DistSq), h)
	}
	p.SmoothLen = h
	p.Density = rho
}

// Pressure applies the equation of state P = (gamma-1)·rho·u.
func Pressure(p *particle.Particle, par Params) {
	p.Pressure = (par.Gamma - 1) * p.Density * par.U
}

// PressureAccel accumulates the SPH momentum-equation acceleration on p
// from its neighbor list, using the symmetrized kernel h̄ = (h_i+h_j)/2
// via the neighbor's stored smoothing state when available (we use h_i
// here; the pairwise force uses both particles' P/rho² terms, the standard
// Monaghan form). neighborState maps a neighbor ID to its (density,
// pressure, smoothing length).
func PressureAccel(p *particle.Particle, neighbors []knn.Neighbor, state func(id int64) (rho, press, h float64, ok bool)) {
	if p.Density == 0 {
		return
	}
	pi := p.Pressure / (p.Density * p.Density)
	var acc vec.Vec3
	for _, n := range neighbors {
		rhoJ, pressJ, hJ, ok := state(n.ID)
		if !ok || rhoJ == 0 {
			continue
		}
		r := math.Sqrt(n.DistSq)
		if r == 0 {
			continue
		}
		hBar := (p.SmoothLen + hJ) / 2
		grad := KernelGradW(r, hBar)
		pj := pressJ / (rhoJ * rhoJ)
		dir := p.Pos.Sub(n.Pos).Scale(1 / r)
		// a_i = -Σ m_j (P_i/ρ_i² + P_j/ρ_j²) ∇_i W.
		acc = acc.Add(dir.Scale(-n.Mass * (pi + pj) * grad))
	}
	p.Acc = p.Acc.Add(acc)
}

// BruteForceDensity computes densities for all particles by exact kNN,
// the validation reference.
func BruteForceDensity(ps []particle.Particle, par Params) {
	lists := knn.BruteForce(ps, par.K, true)
	for i := range ps {
		DensityFromNeighbors(&ps[i], lists[i])
		Pressure(&ps[i], par)
	}
}

// Driver returns ParaTreeT's SPH density driver: each iteration attaches
// k-nearest-neighbor heaps to every bucket, runs one up-and-down kNN
// traversal, then sets each particle's smoothing length, density and
// pressure from its neighbor list.
func Driver(par Params) paratreet.Driver[knn.Data] {
	return paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), par.K)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: par.K, ExcludeSelf: true}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					DensityFromNeighbors(&b.Particles[i], st.Neighbors(i))
					Pressure(&b.Particles[i], par)
				}
			})
		},
	}
}

// --- Gadget-2-style fixed-ball search ---

// BallState is the per-bucket state of a fixed-ball search: per particle,
// the current trial radius, the neighbors found inside it, and whether the
// search has converged (converged particles are skipped by later rounds).
type BallState struct {
	Radii []float64
	Found [][]knn.Neighbor
	Done  []bool
}

// AttachBalls initializes ball-search state with the given trial radii
// (one per bucket particle, in bucket order).
func AttachBalls(buckets []*traverse.Bucket, radius func(p *particle.Particle) float64) {
	for _, b := range buckets {
		st := &BallState{
			Radii: make([]float64, len(b.Particles)),
			Found: make([][]knn.Neighbor, len(b.Particles)),
			Done:  make([]bool, len(b.Particles)),
		}
		for i := range b.Particles {
			st.Radii[i] = radius(&b.Particles[i])
		}
		b.State = st
	}
}

// BallVisitor collects, for every target particle, all source particles
// within its fixed trial radius (Gadget-2's inner loop).
type BallVisitor struct {
	ExcludeSelf bool
}

// Open implements traverse.Visitor.
func (v BallVisitor) Open(source *tree.Node[knn.Data], target *traverse.Bucket) bool {
	if source.Data.N == 0 {
		return false
	}
	st := target.State.(*BallState)
	for i := range target.Particles {
		if st.Done[i] {
			continue
		}
		r := st.Radii[i]
		if source.Box.DistSq(target.Particles[i].Pos) <= r*r {
			return true
		}
	}
	return false
}

// Node implements traverse.Visitor.
func (v BallVisitor) Node(source *tree.Node[knn.Data], target *traverse.Bucket) {}

// Leaf implements traverse.Visitor.
func (v BallVisitor) Leaf(source *tree.Node[knn.Data], target *traverse.Bucket) {
	st := target.State.(*BallState)
	for i := range target.Particles {
		if st.Done[i] {
			continue
		}
		p := &target.Particles[i]
		r2 := st.Radii[i] * st.Radii[i]
		for j := range source.Particles {
			s := &source.Particles[j]
			if v.ExcludeSelf && s.ID == p.ID {
				continue
			}
			d2 := s.Pos.DistSq(p.Pos)
			if d2 <= r2 {
				st.Found[i] = append(st.Found[i], knn.Neighbor{
					DistSq: d2, ID: s.ID, Pos: s.Pos, Mass: s.Mass,
				})
			}
		}
	}
}

// ConvergeRadii performs one bisection update of each particle's trial
// radius toward finding K neighbors: too few doubles the radius, too many
// shrinks it geometrically toward the K-th distance. It returns how many
// particles are still unconverged (tolerance ±tol neighbors) and clears
// the Found lists of unconverged particles for the next search round.
func (s *BallState) ConvergeRadii(k, tol int) int {
	pending := 0
	for i := range s.Radii {
		if s.Done != nil && s.Done[i] {
			continue
		}
		n := len(s.Found[i])
		switch {
		case n < k-tol:
			s.Radii[i] *= 2
			s.Found[i] = s.Found[i][:0]
			pending++
		case n > k+tol:
			// Shrink to the k-th smallest found distance (selection by
			// partial sort would do; a simple nth-element scan suffices).
			s.Radii[i] = kthDistance(s.Found[i], k)
			s.Found[i] = s.Found[i][:0]
			pending++
		default:
			if s.Done != nil {
				s.Done[i] = true
			}
		}
	}
	return pending
}

// kthDistance returns the k-th smallest neighbor distance.
func kthDistance(ns []knn.Neighbor, k int) float64 {
	ds := make([]float64, len(ns))
	for i, n := range ns {
		ds[i] = n.DistSq
	}
	// Partial selection.
	for i := 0; i < k && i < len(ds); i++ {
		min := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j] < ds[min] {
				min = j
			}
		}
		ds[i], ds[min] = ds[min], ds[i]
	}
	if len(ds) == 0 {
		return 0
	}
	idx := k - 1
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return math.Sqrt(ds[idx])
}
