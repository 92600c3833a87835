package main

import (
	"math"
	"math/rand"

	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

// scaled returns n, or n/10 at -quick scale.
func scaled(n int, quick bool) int {
	if quick {
		return n / 10
	}
	return n
}

// layoutSeed fixes where the clusters and halos of every dataset sit. The
// run's -seed draws the particles inside them. A step's cost follows the
// large-scale layout — how clusters fall across process boundaries decides
// the fetch traffic — so with the layout drawn from -seed too, runs on
// different seeds measured different problems (gravity's step time ranged
// over 9% and its allocation over 40% across ten seeds); with the layout
// fixed, seeds are independent samples of one problem.
const layoutSeed = 20220530

// uniformIn draws a point uniform in the unit box.
func uniformIn(rng *rand.Rand) vec.Vec3 {
	return vec.V(rng.Float64(), rng.Float64(), rng.Float64())
}

// clustered is particle.NewClustered's recipe — nclusters Plummer spheres
// of scale 1/(8 nclusters) in the unit box — with the sphere centres taken
// from layoutSeed and the particles from seed.
func clustered(n int, seed int64, nclusters int) []particle.Particle {
	layout := rand.New(rand.NewSource(layoutSeed))
	rng := rand.New(rand.NewSource(seed))
	scale := 1 / (8 * float64(nclusters))
	ps := make([]particle.Particle, 0, n)
	for c := 0; c < nclusters; c++ {
		count := n / nclusters
		if c == nclusters-1 {
			count = n - len(ps)
		}
		ps = append(ps, particle.NewPlummer(count, rng.Int63(), uniformIn(layout), scale)...)
	}
	for i := range ps {
		ps[i].ID = int64(i)
	}
	return ps
}

// cosmological is particle.NewCosmological's recipe — half the particles a
// uniform background, half in 32 Gaussian halos of sigma 1/40, clamped to
// the unit box — with the halo centres taken from layoutSeed and the
// particles from seed.
func cosmological(n int, seed int64) []particle.Particle {
	const nhalos = 32
	const sigma = 1.0 / 40
	layout := rand.New(rand.NewSource(layoutSeed))
	rng := rand.New(rand.NewSource(seed))
	box := vec.UnitBox()
	ps := particle.NewUniform(n/2, rng.Int63(), box)
	per := (n - n/2) / nhalos
	for h := 0; h < nhalos; h++ {
		centre := uniformIn(layout)
		count := per
		if h == nhalos-1 {
			count = n - len(ps)
		}
		for i := 0; i < count; i++ {
			pos := centre.Add(vec.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(sigma))
			ps = append(ps, particle.Particle{Mass: 1 / float64(n), Pos: pos.Max(box.Min).Min(box.Max)})
		}
	}
	for i := range ps {
		ps[i].ID = int64(i)
	}
	return ps
}

// anchorMargin keeps drifting particles strictly inside the corner
// anchors.
const anchorMargin = 0.01

func clampInterior(x float64) float64 {
	return math.Min(math.Max(x, anchorMargin), 1-anchorMargin)
}

// anchoredClustered is the incremental-build dataset (as
// cmd/paratreet-bench's benchIncParticles): a clustered cloud clamped
// inside 8 corner anchors, so small drifts never change the global
// bounding box — a box change would force the incremental path back to a
// scratch build. radius is stamped on the interior bodies (collision
// probes need finite-size bodies; 0 elsewhere).
func anchoredClustered(n int, seed int64, radius float64) []particle.Particle {
	ps := clustered(n-8, seed, 8)
	for i := range ps {
		ps[i].Pos = vec.V(clampInterior(ps[i].Pos.X), clampInterior(ps[i].Pos.Y), clampInterior(ps[i].Pos.Z))
		ps[i].Radius = radius
	}
	id := int64(len(ps))
	for c := 0; c < 8; c++ {
		ps = append(ps, particle.Particle{
			ID:   id,
			Pos:  vec.V(float64(c>>2&1), float64(c>>1&1), float64(c&1)),
			Mass: 1e-12,
		})
		id++
	}
	return ps
}

// drift random-walks movers particles by up to ±step per axis, picking
// them by position in the slice's current order (builds reorder it, which
// is deterministic for a given seed). The anchors — the 8 highest IDs —
// never move.
func drift(ps []particle.Particle, rng *rand.Rand, movers int, step float64) {
	interior := int64(len(ps) - 8)
	for m := 0; m < movers; m++ {
		p := &ps[rng.Intn(len(ps))]
		if p.ID >= interior {
			continue
		}
		p.Pos = vec.V(
			clampInterior(p.Pos.X+(2*rng.Float64()-1)*step),
			clampInterior(p.Pos.Y+(2*rng.Float64()-1)*step),
			clampInterior(p.Pos.Z+(2*rng.Float64()-1)*step),
		)
	}
}
